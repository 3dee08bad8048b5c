"""Command-line front end: config parsing, the density spec grammar, output
schemas for every command, and the exit-code contract.

Most tests drive `cli.main` in-process and parse the emitted CSV/JSON; one
test covers the entry point itself: it runs the `[project.scripts]` target
in a child process the way the installed wrapper would, and also runs the
installed `robustlrt` script when one is on PATH.  The solve outputs are
checked against the same frozen threshold anchors as the solver tests, and
the `table(...)` grammar is validated as a round trip: tabulating the
bimodal nominals and solving from the tables reproduces the anchor
thresholds.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import robustlrt
from robustlrt import DivergenceSpec, cli, csvtext, density, evaluation, lfd_solver
from robustlrt.cli import ConfigError, parse_density
from robustlrt.lfd_solver import (NonConvergenceError, partition, solve_symmetric,
                                  solve_thresholds)

ANCHOR_L_L = 0.6050401521115419
ANCHOR_L_U = 1.6180169369866289
SYM10_L_L = 0.584994309240664
SYM10_L_U = 1.709418338270714
LIMITS_A0_PARTNER_OF_02 = 2.7510004003203203
PHI_MINUS_1 = 0.15865525393145707

MIX0 = "mixture(0.5*gaussian(-2,1)+0.5*gaussian(2,1))"
MIX1 = "shift(mixture(0.5*gaussian(-2,1)+0.5*gaussian(2,1)),1)"


def read_csv(text: str):
    lines = text.strip().splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, val = lines[i][2:].split("=", 1)
        meta[key] = val
        i += 1
    names = lines[i].split(",")
    rows = [ln.split(",") for ln in lines[i + 1:]]
    return meta, names, rows


def run_main(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def child_env():
    """The environment of a child interpreter that imports the same robustlrt
    as this suite, from src/ or an install."""
    package_root = str(Path(robustlrt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# density spec grammar


def test_parse_density_grammar():
    g = parse_density(" gaussian(0.5, 2) ")
    assert g.components == ((1.0, 0.5, 2.0),)
    m = parse_density(MIX0)
    assert isinstance(m, density.GaussianMixture)
    s = parse_density(MIX1)
    assert isinstance(s, density.Shifted) and s.shift == 1.0


def test_parse_density_table(tmp_path):
    path = tmp_path / "dens.csv"
    ys = np.linspace(-5.0, 5.0, 101)
    vs = np.exp(-0.5 * ys**2) / math.sqrt(2.0 * math.pi)
    path.write_text("y,value\n" + "\n".join(
        f"{float(y)!r},{float(v)!r}" for y, v in zip(ys, vs)) + "\n")
    t = parse_density(f"table({path})")
    assert isinstance(t, density.Tabulated)
    np.testing.assert_allclose(t.points, ys)


def test_parse_density_rejects_malformed(tmp_path):
    for bad in ("uniform(0,1)", "gaussian(0,1", "gaussian(0)",
                "gaussian(a,1)", "gaussian(0,-1)", "gaussian(0,nan)", "gaussian(0,inf)",
                "shift(gaussian(0,1))",
                "mixture(0.5*uniform(0,1)+0.5*gaussian(0,1))",
                "mixture(gaussian(0,1))", "42"):
        with pytest.raises(ConfigError):
            parse_density(bad)
    missing = tmp_path / "nope.csv"
    with pytest.raises(ConfigError, match="cannot read"):
        parse_density(f"table({missing})")
    short = tmp_path / "short.csv"
    short.write_text("y,value\n0,1\n1,1\n")
    with pytest.raises(ConfigError, match="at least 3"):
        parse_density(f"table({short})")
    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("x,v\n0,1\n1,1\n2,1\n")
    with pytest.raises(ConfigError, match="header"):
        parse_density(f"table({bad_header})")
    unsorted = tmp_path / "uns.csv"
    unsorted.write_text("y,value\n0,1\n2,1\n1,1\n")
    with pytest.raises(ConfigError, match="increasing"):
        parse_density(f"table({unsorted})")
    wide = tmp_path / "wide.csv"
    wide.write_text("y,value\n0,1\n1,0.5,7\n2,1\n")
    with pytest.raises(ConfigError, match="malformed table"):
        parse_density(f"table({wide})")
    # the models' own checks come back as configuration errors that name the spec
    negative = tmp_path / "neg.csv"
    negative.write_text("y,value\n0,1\n1,-1\n2,1\n")
    for bad, message in MODEL_ERRORS + [(f"table({negative})",
                                         "values must be finite and nonnegative")]:
        with pytest.raises(ConfigError) as err:
            parse_density(bad)
        assert str(err.value) == f"{message} in density spec {bad!r}"


# specs the grammar accepts but the density models refuse, with the models' messages
MODEL_ERRORS = [
    ("mixture(0.5*gaussian(0,1)+0.6*gaussian(1,1))", "mixture weights sum to 1.1, expected 1"),
    ("mixture(-0.5*gaussian(0,1)+1.5*gaussian(1,1))", "negative mixture weight -0.5"),
    ("shift(gaussian(0,1),nan)", "shift must be finite, got nan"),
    ("shift(gaussian(0,1),inf)", "shift must be finite, got inf"),
    ("shift(gaussian(0,1),1e308)", "invalid support [1e+308, 1e+308]"),
]


@pytest.mark.parametrize("spec, message", MODEL_ERRORS)
def test_model_error_is_a_config_error_naming_the_spec(capsys, spec, message):
    code = cli.run({"command": "limits", "nominal0": spec, "nominal1": "gaussian(1,1)",
                    "alpha": "4", "eps0": "0.01", "grid": "-5:5:101"})
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"configuration error: {message} in density spec {spec!r}\n"


@pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
def test_bad_gaussian_scale_is_one_config_error(capsys, sigma):
    # the scale is checked once, by the model, and reported as its message
    # with the spec, like the other model errors
    spec = f"gaussian(0,{sigma})"
    with pytest.raises(ConfigError, match=r"^stddev must be positive, got "):
        parse_density(spec)
    code = cli.run({"command": "limits", "nominal0": spec, "nominal1": "gaussian(1,1)",
                    "alpha": "4", "eps0": "0.01", "grid": "-5:5:101"})
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"configuration error: stddev must be positive, got {float(sigma)} "
                   f"in density spec {spec!r}\n")


def test_table_with_an_infinite_point_exits_1(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("y,value\n0,0.1\n1,0.5\n2,0.3\ninf,0.1\n")
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"command = solve\nnominal0 = table({path})\nnominal1 = gaussian(1,1)\n"
                   "alpha = 2\neps0 = 0.05\neps1 = 0.05\n")
    code, _, err = run_main(["--config", str(cfg), "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 1 and "points must be finite" in err


# ---------------------------------------------------------------------------
# solve command


@pytest.fixture(scope="module")
def anchor_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "anchor.cfg"
    path.write_text(
        "# anchor problem\n"
        "command = solve\n"
        "\n"
        f"nominal0 = {MIX0}\n"
        f"nominal1 = {MIX1}   # unit shift\n"
        "alpha = 4\n"
        "rho = 1\n"
        "eps0 = 0.02\n"
        "eps1 = 0.03\n"
        "grid = -8:9:4001\n"
    )
    return str(path)


def test_solve_csv_output(anchor_config, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code, _, err = run_main(["--config", anchor_config, "--out", str(out)],
                            capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out.read_text())
    for key in ("alpha", "rho", "eps0", "eps1", "l_l", "l_u", "k", "z",
                "residual_norm", "achieved_eps0", "achieved_eps1"):
        assert key in meta
    assert float(meta["l_l"]) == pytest.approx(ANCHOR_L_L, rel=1e-9)
    assert float(meta["l_u"]) == pytest.approx(ANCHOR_L_U, rel=1e-9)
    assert float(meta["residual_norm"]) < 1e-8
    assert names == ["y", "f0", "f1", "l", "g0_hat", "g1_hat", "delta_hat",
                     "l_hat", "region"]
    data = np.array([[float(v) for v in row[:-1]] for row in rows])
    regions = {row[-1] for row in rows}
    assert regions == {"1", "2", "3"}
    y, g0, g1 = data[:, 0], data[:, 4], data[:, 5]
    assert float(np.trapezoid(g0, y)) == pytest.approx(1.0, abs=1e-5)
    assert float(np.trapezoid(g1, y)) == pytest.approx(1.0, abs=1e-5)
    dlt = data[:, 6]
    assert np.all((dlt >= 0.0) & (dlt <= 1.0))

    # reruns are byte-identical
    out2 = tmp_path / "sol2.csv"
    code, _, _ = run_main(["--config", anchor_config, "--out", str(out2)],
                          capsys)
    assert code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_solve_at_zero_radii(anchor_config, tmp_path, capsys):
    # zero radii solve without a search: thresholds (1, 1), and the region
    # column labels the crossing knots, where l is 1, as the band I2
    out = tmp_path / "zero.csv"
    code, _, err = run_main(["--config", anchor_config, "--eps0", "0", "--eps1", "0",
                             "--out", str(out)], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out.read_text())
    assert (meta["l_l"], meta["l_u"]) == ("1", "1")
    assert {row[-1] for row in rows} == {"1", "2", "3"}


def test_grid_flag_with_negative_minimum(anchor_config, tmp_path, capsys):
    # a flag value starting with '-' must be joined to its flag with '='
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(Path(anchor_config).read_text().replace("grid = -8:9:4001",
                                                           "grid = 0:1:1001"))
    out = tmp_path / "grid.csv"
    code, _, err = run_main(["--config", str(cfg), "--grid=-8:9:4001", "--out", str(out)],
                            capsys)
    assert code == 0 and err == ""
    meta, _, rows = read_csv(out.read_text())
    assert (float(rows[0][0]), float(rows[-1][0])) == (-8.0, 9.0)
    assert float(meta["l_l"]) == pytest.approx(ANCHOR_L_L, rel=1e-9)
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg), "--grid", "-8:9:4001"])
    assert info.value.code == 1


def test_solve_json_output_and_override_precedence(tmp_path, capsys):
    # the gaussian pair comes from a config file; CLI flags override radii
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "command = solve\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.05\neps1 = 0.05\ngrid = -9:9:2001\n")
    out = tmp_path / "g.json"
    code, _, err = run_main(
        ["--config", str(cfg), "--eps0", "0.02", "--eps1", "0.02",
         "--format", "json", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "columns"}
    assert payload["meta"]["alpha"] == 0.5
    assert payload["meta"]["eps0"] == 0.02  # override beat the file value
    assert payload["meta"]["eps1"] == 0.02
    cols = payload["columns"]
    assert set(cols) >= {"y", "g0_hat", "g1_hat", "delta_hat", "region"}
    n = len(cols["y"])
    assert n >= 2001 and all(len(c) == n for c in cols.values())


def test_solve_symmetric_command(tmp_path, capsys):
    cfg = tmp_path / "sym.cfg"
    cfg.write_text(
        "command = solve-symmetric\nnominal0 = gaussian(-1,1)\n"
        "nominal1 = gaussian(1,1)\nalpha = 10\neps = 0.1\ngrid = -9:9:4001\n")
    out = tmp_path / "sym.csv"
    code, _, err = run_main(["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0 and err == ""
    meta, _, _ = read_csv(out.read_text())
    assert float(meta["l_l"]) == pytest.approx(SYM10_L_L, rel=1e-9)
    assert float(meta["l_u"]) == pytest.approx(SYM10_L_U, rel=1e-9)
    assert float(meta["eps0"]) == float(meta["eps1"]) == 0.1


def test_table_grammar_roundtrip(tmp_path, capsys, mix_nominals, mix_grid):
    # tabulate the bimodal nominals, solve from the tables, and recover the
    # anchor thresholds through a completely different input path
    paths = []
    for i, f in enumerate(mix_nominals):
        vals = density.evaluate(f, mix_grid.points)
        p = tmp_path / f"nom{i}.csv"
        p.write_text("y,value\n" + "\n".join(
            f"{float(y)!r},{float(v)!r}" for y, v in zip(mix_grid.points, vals)) + "\n")
        paths.append(p)
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(
        "command = solve\n"
        f"nominal0 = table({paths[0]})\n"
        f"nominal1 = table({paths[1]})\n"
        "alpha = 4\neps0 = 0.02\neps1 = 0.03\ngrid = -8:9:4001\n")
    out = tmp_path / "tab.csv"
    code, _, err = run_main(["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0 and err == ""
    meta, _, _ = read_csv(out.read_text())
    assert float(meta["l_l"]) == pytest.approx(ANCHOR_L_L, rel=1e-8)
    assert float(meta["l_u"]) == pytest.approx(ANCHOR_L_U, rel=1e-8)


# ---------------------------------------------------------------------------
# limits and surface commands


def test_limits_closed_form(capsys):
    code, out, err = run_main(
        ["--command", "limits", "--alpha", "0.5", "--eps0", "0.2"], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out)
    assert meta["mode"] == "closed-form"
    assert names == ["eps0", "eps1", "lambda0", "lambda1"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.2
    assert float(rows[0][1]) == pytest.approx(LIMITS_A0_PARTNER_OF_02, rel=1e-9)
    assert math.isnan(float(rows[0][2])) and math.isnan(float(rows[0][3]))


def test_limits_general_mode(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text(
        "command = limits\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.02\ngrid = -9:9:4001\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    meta, _, rows = read_csv(out)
    assert meta["mode"] == "general"
    from robustlrt import limits as _limits
    expected = _limits._hellinger_other(math.exp(-0.5), 0.02)
    assert float(rows[0][1]) == pytest.approx(expected, abs=1e-8)
    assert float(rows[0][2]) > 0.0 and float(rows[0][3]) > 0.0


def _anchor_limits(tmp_path, capsys, body):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text(f"command = limits\nnominal0 = {MIX0}\nnominal1 = {MIX1}\n"
                   f"grid = -8:9:4001\n{body}")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0, err
    # the grid's warning is one line, without a source location
    assert err.startswith("warning: likelihood ratio spans only [") and err.count("\n") == 1
    meta, _, rows = read_csv(out)
    assert meta["mode"] == "general"
    return [float(x) for x in rows[0]]


def test_limits_ignores_the_prior(tmp_path, capsys):
    # the balls, and so the boundary, do not depend on rho: at eps0 = 0 the
    # partner is D(f0||f1), the rho = 1 value, at any prior
    row = _anchor_limits(tmp_path, capsys, "alpha = 0.5\nrho = 1.2\neps0 = 0\n")
    assert row == _anchor_limits(tmp_path, capsys, "alpha = 0.5\nrho = 1\neps0 = 0\n")
    assert f"{row[1]:.6f}" == "0.325866"
    assert (row[2], row[3]) == (0.5, 0.0)


def test_limits_with_eps1_fixed(tmp_path, capsys):
    row = _anchor_limits(tmp_path, capsys, "alpha = 4\neps1 = 0.01\n")
    assert row[1] == 0.01 and row[0] > 0.0
    assert row[2] > 0.0 and row[3] > 0.0


def test_limits_rejects_two_fixed_radii(capsys):
    code, _, err = run_main(
        ["--command", "limits", "--alpha", "0.5", "--eps0", "0.1",
         "--eps1", "0.1"], capsys)
    assert code == 1
    assert "configuration error" in err and "exactly one" in err


@pytest.mark.parametrize("eps0", ["inf", "nan"])
def test_solve_refuses_non_finite_radius(tmp_path, capsys, eps0):
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text("nominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n")
    code, out, err = run_main(
        ["--config", str(cfg), "--command", "solve", "--alpha", "4", "--eps0", eps0,
         "--eps1", "0.03", "--grid=-8:9:401"], capsys)
    assert code == 1 and out == ""
    assert "finite and nonnegative" in err


def test_solve_symmetric_refuses_non_finite_radius(tmp_path, capsys):
    cfg = tmp_path / "sym.cfg"
    cfg.write_text(
        "command = solve-symmetric\nnominal0 = gaussian(-1,1)\n"
        "nominal1 = gaussian(1,1)\nalpha = 4\neps = nan\ngrid = -8:9:401\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "finite and nonnegative" in err


def test_limits_beyond_boundary_is_infeasible_exit(capsys):
    # fixed radius past the closed-form axis maximum: exit code 2
    code, _, err = run_main(
        ["--command", "limits", "--alpha", "0.5", "--eps0", "5.0"], capsys)
    assert code == 2
    assert "infeasible radii" in err


@pytest.mark.parametrize("eps0", ["-0.1", "nan", "inf"])
def test_closed_form_limits_refuses_a_bad_fixed_radius(capsys, eps0):
    # no ball has such a radius, so there is no partner to print
    code, out, err = run_main(
        ["--command", "limits", "--alpha", "0.5", f"--eps0={eps0}"], capsys)
    assert code == 1 and out == ""
    assert "finite nonnegative" in err


@pytest.mark.parametrize("a", ["-0.5", "1.5"])
def test_closed_form_limits_refuses_an_overlap_outside_0_1(tmp_path, capsys, a):
    # no density pair has such an overlap: bad input, not infeasible radii
    # (a = -0.5 would give a partner past 4, the widest one at a = 0)
    cfg = tmp_path / "lim.cfg"
    cfg.write_text(f"command = limits\nalpha = 0.5\neps0 = 0.1\na = {a}\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "[0, 1]" in err


def test_surface_refuses_a_nan_overlap(tmp_path, capsys):
    # NaN is a bad overlap, not an absent key defaulting to a = 0
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("command = surface\nalpha = 0.5\nn = 9\na = nan\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "[0, 1]" in err


@pytest.mark.parametrize("command, keys", [("surface", "alpha = 0.5\nn = 9\n"),
                                           ("limits", "alpha = 4\neps0 = 0.1\n")],
                         ids=["surface", "limits"])
def test_overlap_beside_nominals_is_refused(tmp_path, capsys, command, keys):
    # the nominals fix the boundary, so the overlap a would go unread
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"command = {command}\n{keys}a = 0.9\nnominal0 = gaussian(-1,1)\n"
                   "nominal1 = gaussian(1,1)\ngrid = -9:9:401\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "overlap a is read only without nominals" in err


def test_surface_widest_case(tmp_path, capsys):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("command = surface\nalpha = 0.5\nn = 9\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out)
    assert meta["mode"] == "hellinger"
    assert names == ["eps0", "eps1", "a", "feasible"]
    assert len(rows) == 9
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-12)
    apex = 4.0 - 2.0 * math.sqrt(2.0)
    assert float(rows[-1][0]) == pytest.approx(apex, rel=1e-12)
    assert float(rows[-1][1]) == pytest.approx(apex, abs=1e-9)
    assert all(row[2] == "0" and row[3] == "1" for row in rows)


# ---------------------------------------------------------------------------
# evaluate and sweep commands


def test_evaluate_rows(tmp_path, capsys, anchor_config, mix_solution, mix_nominals,
                       mc_in_generator_order):
    cfg = tmp_path / "ev.cfg"
    cfg.write_text(
        "command = evaluate\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.02\neps1 = 0.02\ngrid = -9:9:4001\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out)
    assert names == ["rule", "densities", "method", "p_fa", "p_miss",
                     "p_error", "hw_fa", "hw_miss"]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("robust", "lfd", "quadrature"),
        ("robust", "nominal", "quadrature"),
        ("lrt", "nominal", "quadrature"),
    ]
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0 and 0.0 <= float(r[5]) <= 1.0
        assert math.isnan(float(r[6])) and math.isnan(float(r[7]))
    # the plain test under the nominals is the known Gaussian error
    assert float(rows[2][3]) == pytest.approx(PHI_MINUS_1, abs=1e-5)
    # the robust rule pays for robustness under the nominals
    assert float(rows[1][5]) > float(rows[2][5])
    # and the least favorable pair is worse than the nominals
    assert float(rows[0][5]) > float(rows[1][5])

    code, out, err = run_main(["--config", str(cfg), "--mc", "2000:9"], capsys)
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 6
    assert [r[2] for r in rows[3:]] == ["monte_carlo"] * 3
    for r in rows[3:]:
        assert float(r[6]) > 0.0 and float(r[7]) > 0.0

    # on the anchor problem, 200003 draws per hypothesis (three blocks of
    # 2^16 and a partial one): the Monte Carlo rows run at seeds seed,
    # seed + 1 and seed + 2, each the recount in generator order
    code, out, err = run_main(["--config", anchor_config, "--command", "evaluate",
                               "--mc", "200003:3"], capsys)
    assert code == 0 and err == ""
    _, _, rows = read_csv(out)
    sol, lrt = mix_solution, evaluation.lrt_rule(mix_nominals, 1.0)
    runs = [(sol.delta_hat, (sol.g0_hat, sol.g1_hat)), (sol.delta_hat, mix_nominals),
            (lrt, mix_nominals)]
    assert [(r[0], r[1], r[2]) for r in rows[3:]] == [
        ("robust", "lfd", "monte_carlo"), ("robust", "nominal", "monte_carlo"),
        ("lrt", "nominal", "monte_carlo")]
    for i, (row, (rule, models)) in enumerate(zip(rows[3:], runs)):
        assert (float(row[3]), float(row[4])) == \
            mc_in_generator_order(rule, *models, 200003, 3 + i), row


def test_sweep_alpha_command(tmp_path, capsys):
    cfg = tmp_path / "sa.cfg"
    cfg.write_text(
        f"command = sweep-alpha\nnominal0 = {MIX0}\nnominal1 = {MIX1}\n"
        "alphas = 2, 4\nrho = 1\neps0 = 0.02\neps1 = 0.03\ngrid = -8:9:4001\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out)
    assert names == ["alpha", "l_l", "l_u", "residual"]
    assert [float(r[0]) for r in rows] == [2.0, 4.0]
    assert float(rows[0][1]) == pytest.approx(0.5845382425727917, rel=1e-8)
    assert float(rows[0][2]) == pytest.approx(1.6713661663607227, rel=1e-8)
    assert float(rows[1][1]) == pytest.approx(ANCHOR_L_L, rel=1e-8)
    assert float(rows[1][2]) == pytest.approx(ANCHOR_L_U, rel=1e-8)
    assert all(float(r[3]) < 1e-8 for r in rows)


@pytest.mark.parametrize("alphas", ["1, 2", "2, 1"])
def test_sweep_alpha_command_records_an_order_in_the_guard_band(tmp_path, capsys, alphas):
    # an excluded order anywhere in the list gets a NaN row and one stderr
    # line that says why; a bad prior is still refused before any solve
    cfg = tmp_path / "sa.cfg"
    text = (f"command = sweep-alpha\nnominal0 = {MIX0}\nnominal1 = {MIX1}\n"
            f"alphas = {alphas}\neps0 = 0.02\neps1 = 0.03\ngrid = -8:9:4001\n")
    cfg.write_text(text)
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    assert err == ("warning: alpha = 1.0 failed: alpha=1.0 is inside the guard band around "
                   "the excluded points 0 and 1\n")
    assert "\n1,nan,nan,nan\n" in "\n" + out
    assert len(read_csv(out)[2]) == 2
    cfg.write_text(text + "rho = 0\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == "" and "rho must be positive" in err


def test_sweep_snr_command(tmp_path, capsys):
    cfg = tmp_path / "ss.cfg"
    cfg.write_text(
        "command = sweep-snr\nnominal0 = gaussian(0,1)\nsnr_db = 0, 10\n"
        "alpha = 0.5\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    meta, names, rows = read_csv(out)
    assert names == ["snr_db", "test", "eps0", "eps1", "p_fa", "p_miss"]
    assert len(rows) == 6  # nominal + two default radii settings per SNR
    assert [r[1] for r in rows] == ["nominal", "robust", "robust"] * 2
    snr0 = rows[:3]
    assert float(snr0[0][0]) == pytest.approx(0.0, abs=1e-9)
    assert float(snr0[0][4]) == pytest.approx(0.3085378755738316, rel=1e-9)
    assert (float(snr0[2][2]), float(snr0[2][3])) == (0.02, 0.02)
    assert float(snr0[2][4]) == pytest.approx(0.31524326119630847, rel=1e-9)
    # robustness price is monotone in the radius at each signal level
    for group in (rows[:3], rows[3:]):
        pf = [float(r[4]) for r in group]
        assert pf[0] < pf[1] < pf[2]


def test_sweep_snr_says_why_a_row_failed(tmp_path, capsys):
    # radii 0.3 lie outside the boundary at -20 dB and inside it at 10 dB:
    # the failed row is NaNs in the table and one warning line on stderr
    cfg = tmp_path / "ss.cfg"
    cfg.write_text("command = sweep-snr\nnominal0 = gaussian(0,1)\nsnr_db = -20, 10\n"
                   "alpha = 0.5\neps0 = 0.3\neps1 = 0.3\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    [line] = err.splitlines()
    assert line.startswith("warning: snr_db = -20.0, eps0 = 0.3, eps1 = 0.3 failed: "
                           "(eps0, eps1) = (0.3, 0.3) is not strictly inside")
    _, _, rows = read_csv(out)
    assert rows[1] == ["-20", "robust", "0.29999999999999999", "0.29999999999999999", "nan",
                       "nan"]
    assert "nan" not in rows[3]


def test_sweep_snr_echoes_the_requested_snr(capsys):
    # 10^(5/20) and back gives 4.9999999999999991 dB on this noise, so the
    # column carries the requested values, not snr_of(amplitude)
    noise = parse_density("gaussian(0.3,1.7)")
    amp = evaluation.amplitudes_from_snr([5.0], noise)[0]
    assert evaluation.snr_of(amp, noise) != 5.0
    code = cli.run({"command": "sweep-snr", "nominal0": "gaussian(0.3,1.7)",
                    "snr_db": "-5,0,5", "mc": "2000:4"})
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["-5"] * 3 + ["0"] * 3 + ["5"] * 3
    assert [r[1] for r in rows] == ["nominal", "robust", "robust"] * 3
    # with amplitudes the column stays snr_of(amplitude)
    code = cli.run({"command": "sweep-snr", "nominal0": "gaussian(0.3,1.7)",
                    "amplitudes": repr(amp), "mc": "2000:4"})
    out, _ = capsys.readouterr()
    assert code == 0
    assert {r[0] for r in read_csv(out)[2]} == {"%.17g" % evaluation.snr_of(amp, noise)}


# ---------------------------------------------------------------------------
# output contract: floats round-trip exactly, ints and booleans are integers,
# NaN is null in JSON, and both formats carry the same values


def test_solve_csv_round_trips_the_solution(anchor_config, mix_solution, capsys):
    code, out, err = run_main(["--config", anchor_config], capsys)
    assert code == 0 and err == ""
    _, names, rows = read_csv(out)
    cols = dict(zip(names, zip(*rows)))
    sol = mix_solution
    for name, expected in (("y", sol.grid.points), ("g0_hat", sol.g0_hat.values),
                           ("delta_hat", sol.delta_hat.values)):
        parsed = np.array([float(v) for v in cols[name]])
        assert parsed.tobytes() == np.asarray(expected, dtype=float).tobytes(), name
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    regions = partition(l, 1.0, sol.thresholds)
    assert list(cols["region"]) == [str(r) for r in regions.tolist()]
    assert set(cols["region"]) == {"1", "2", "3"}


def test_solve_json_round_trips_the_solution(anchor_config, mix_solution, capsys):
    code, out, err = run_main(["--config", anchor_config, "--format", "json"], capsys)
    assert code == 0 and err == ""
    cols = json.loads(out)["columns"]
    sol = mix_solution
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    expected = {
        "y": sol.grid.points, "f0": sol.f0_values, "f1": sol.f1_values, "l": l,
        "g0_hat": sol.g0_hat.values, "g1_hat": sol.g1_hat.values,
        "delta_hat": sol.delta_hat.values, "l_hat": sol.l_hat.values,
    }
    assert set(cols) == {*expected, "region"}
    for name, values in expected.items():
        parsed = np.array(cols[name], dtype=float)
        assert parsed.tobytes() == np.asarray(values, dtype=float).tobytes(), name
    assert cols["region"] == partition(l, 1.0, sol.thresholds).tolist()


def _indent1_json(meta, columns):
    """The JSON text the writer must reproduce byte for byte."""
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    payload = {
        "meta": {k: None if v != v else v for k, v in meta.items()},
        "columns": {k: [None if x != x else x for x in a.tolist()]
                    if a.dtype.kind == "f" else a.tolist() for k, a in arrays.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


JSON_TABLES = {
    "nan": ({"z": math.nan, "a": 1.5, "k": 3},
            {"p": [0.25, math.nan, 1e-300], "all_nan": np.full(2, math.nan)}),
    "inf": ({"hi": math.inf, "lo": -math.inf},
            {"l": np.array([0.0, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])}),
    "empty-column": ({"mode": "general"}, {"y": np.array([], dtype=float), "x": [1.0]}),
    "no-columns": ({"alpha": 0.5}, {}),
    "no-meta": ({}, {"x": [2.0]}),
    "typed": ({"mode": 'say "é"', "ok": True},
              {"region": np.array([3, 1, 2], dtype=np.int8),
               "feasible": np.array([True, False, True]),
               "rule": ['a "quoted" name', "naïve Ωmega", "back\\slash"]}),
}


@pytest.mark.parametrize("case", sorted(JSON_TABLES))
def test_json_writer_matches_json_dumps_indent1(case):
    meta, columns = JSON_TABLES[case]
    assert cli._render("json", meta, columns) == _indent1_json(meta, columns)


def test_json_writer_matches_json_dumps_on_a_40k_solution(norm_solution_40k, norm_pair):
    spec = DivergenceSpec(alpha=-1.0, eps0=0.085, eps1=0.1)
    for sol in (norm_solution_40k,
                solve_thresholds(spec, norm_pair, density.make_grid(-9.0, 9.0, 40001))):
        meta, columns = cli._solution_table(sol)
        text = cli._render("json", meta, columns)
        assert text == _indent1_json(meta, columns)
        assert text.startswith('{\n "columns": {\n  "delta_hat": [\n   ')


# ---------------------------------------------------------------------------
# CSV writer: every float exactly '%.17g', formatted in whole-array passes


def _loop_typed(values):
    arr = np.asarray(values)
    kind = arr.dtype.kind
    return arr.tolist(), "%s" if kind == "U" else "%d" if kind in "biu" else "%.17g"


def _loop_csv(meta, columns):
    """The CSV text as the per-row loop writes it, the writer's reference."""
    head = {k: _loop_typed(v) for k, v in meta.items()}
    cols = {k: _loop_typed(v) for k, v in columns.items()}
    lines = [f"# {k}={f % v}" for k, (v, f) in head.items()]
    lines.append(",".join(cols))
    template = ",".join(f for _, f in cols.values())
    lines.extend(template % row for row in zip(*(v for v, _ in cols.values())))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["as-is", "passes"])
def csv_path(request, monkeypatch):
    """The writer as it is, and with every table, however small, formatted
    by the whole-array passes."""
    if request.param == "passes":
        monkeypatch.setattr(csvtext, "_MIN_CELLS", 0)


@pytest.fixture
def format_column(monkeypatch):
    """The lines the whole-array passes write for one float column."""
    monkeypatch.setattr(csvtext, "_MIN_CELLS", 0)
    return lambda values: csvtext.rows({"v": values}).splitlines()


def _neighbours(values):
    x = np.atleast_1d(np.asarray(values, dtype=float))
    with np.errstate(over="ignore"):
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _hard_near_ties():
    """Doubles x >= 1e39 whose x·10^-u in [1e16, 1e17) (u = 23, 24) lies
    (2i + 1) / (2·5^u) < 4e-15 from a rounding tie: inside the error bound
    of the double-double product, so only the fallback rounds them right."""
    out = []
    for u in (23, 24):
        mod = 5 ** u
        for shift in range(50, 62):
            inv = pow(2 ** shift, -1, mod)
            for i in range(40):
                for res in ((mod - 2 * i - 1) // 2, (mod + 2 * i + 1) // 2):
                    m = res * inv % mod
                    if (2 ** 52 <= m < 2 ** 53
                            and 10 ** 16 * mod <= m * 2 ** shift < 10 ** 17 * mod):
                        out.append(float(m * 2 ** (shift + u)))
    return np.array(out)


def _float_cases():
    rng = np.random.default_rng(20)
    # every biased exponent (0: subnormals, 2047: inf and NaN), random mantissas and signs
    exps = np.repeat(np.arange(2048, dtype=np.uint64), 16)
    mant = rng.integers(0, 2 ** 52, exps.size, dtype=np.uint64)
    sign = rng.integers(0, 2, exps.size, dtype=np.uint64)
    digits17 = rng.integers(10 ** 16, 10 ** 17, 5000).tolist()
    exp10 = rng.integers(-340, 300, 5000).tolist()
    odd = np.arange(1, 40, 2, dtype=float)
    return {
        "random-bits": rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
        "every-exponent": ((sign << 63) | (exps << 52) | mant).view(np.float64),
        "powers-of-ten": _neighbours([float(f"1e{j}") for j in range(-320, 308)]),
        "near-ties": np.array([float(f"{n}5e{e}") for n, e in zip(digits17, exp10)]),
        "hard-near-ties": _hard_near_ties(),
        # exact ties: 10^s times these is N + 1/2 for s = 1, 23, 24
        "dyadic-ties": np.concatenate([1e15 + np.arange(0.25, 100, 0.5), odd * 2.0 ** -24,
                                       odd * 2.0 ** -25]),
        "integers": np.concatenate([np.arange(-3000.0, 3000.0), _neighbours(2.0 ** 53),
                                    rng.integers(-2 ** 63, 2 ** 63, 5000).astype(float)]),
        "powers-of-two": _neighbours(2.0 ** np.arange(-1074, 1024)),
        "layout-edges": _neighbours([1e-5, -1e-5, 1e-4, -1e-4, 1e16, -1e16, 1e17, -1e17]),
        "specials": np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]),
        "subnormals": np.concatenate([
            rng.integers(1, 2 ** 52, 5000, dtype=np.uint64).view(np.float64),
            np.arange(1, 200, dtype=np.uint64).view(np.float64), _neighbours(2.0 ** -1022)]),
        # from 2^53 on the spacing is 2 or more, so the ends of a value's
        # rounding interval are integers
        "integral-1e15-1e17": _neighbours(np.concatenate([
            rng.integers(10 ** 15, 10 ** 17, 5000).astype(float),
            2.0 ** np.arange(50, 57), 10.0 ** np.arange(15, 17)])),
    }


FLOAT_CASES = _float_cases()


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_csv_floats_are_exactly_percent_17g(case, format_column):
    values = FLOAT_CASES[case]
    assert format_column(values) == ["%.17g" % x for x in values.tolist()]


def test_csv_float32_column_is_formatted_widened(format_column):
    values = np.random.default_rng(3).standard_normal(2000).astype(np.float32)
    values[0] = 0.1
    lines = format_column(values)
    assert lines == ["%.17g" % x for x in values.tolist()]
    assert lines[0] == "0.10000000149011612"


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_decimal_digits_are_those_of_percent_e(case):
    # the certified (N, X) are the digits and exponent '%.16e' prints
    values = FLOAT_CASES[case]
    n, x, slow = csvtext._decimal(values)
    printed = ["%.16e" % abs(v) for v in values[~slow].tolist()]
    assert n[~slow].tolist() == [int(p[:1] + p[2:18]) for p in printed]
    assert x[~slow].tolist() == [int(p[19:]) for p in printed]
    if case == "random-bits":
        assert not slow[np.isfinite(values)].any()


def test_decimal_moves_the_exponent_where_log10_misses():
    values = np.array([1e23, np.nextafter(1e3, 0), np.nextafter(1e-5, 0),
                       np.nextafter(1e300, 0), 9.999999999999999e-200])
    exponents = [int(("%.16e" % v)[19:]) for v in values.tolist()]
    assert (np.floor(np.log10(values)) != exponents).all()
    n, x, slow = csvtext._decimal(values)
    assert not slow.any()
    assert x.tolist() == exponents


def test_fallback_takes_what_the_product_cannot_resolve(format_column):
    # ties the product cannot certify go to '%.17g'; exact ones need not
    values = np.concatenate([_hard_near_ties(), [3 * 2.0 ** -24, 2.0 ** -25],
                             FLOAT_CASES["specials"][2:]])
    assert csvtext._decimal(values)[2].all()
    assert format_column(values) == ["%.17g" % x for x in values.tolist()]
    n, x, slow = csvtext._decimal(np.array([1e15 + 0.25, 1e15 + 0.75]))
    assert not slow.any() and n.tolist() == [10 ** 16 + 2, 10 ** 16 + 8]


# ---------------------------------------------------------------------------
# JSON writer: every float exactly repr, formatted in whole-array passes


def _json_float(x):
    """The text json.dumps writes for the float x."""
    if x != x:
        return "null"
    return "Infinity" if x == math.inf else "-Infinity" if x == -math.inf else repr(float(x))


@pytest.fixture
def json_column(monkeypatch):
    """The items the whole-array passes write for one JSON column."""
    monkeypatch.setattr(csvtext, "_MIN_CELLS", 0)
    return lambda values: csvtext.json_items(values).split(",\n   ")


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_json_floats_are_exactly_repr(case, json_column):
    values = FLOAT_CASES[case]
    assert json_column(values) == [_json_float(x) for x in values.tolist()]


def test_json_float32_column_is_formatted_widened(json_column):
    values = np.random.default_rng(3).standard_normal(2000).astype(np.float32)
    values[0] = 0.1
    items = json_column(values)
    assert items == [repr(x) for x in values.tolist()]
    assert items[0] == "0.10000000149011612"


def test_shortest_digits_leave_few_values_to_repr():
    # the passes certify all but a few values and take their text from repr
    values = FLOAT_CASES["random-bits"]
    slow = csvtext._shortest(values)[2][np.isfinite(values)]
    assert slow.mean() < 0.005
    # interval ends on integers are exact and decided by the mantissa's parity
    # (the neighbours x.25 and x.75 below 2^51 tie between two candidates)
    values = FLOAT_CASES["integral-1e15-1e17"]
    assert not csvtext._shortest(values[values == np.rint(values)])[2].any()
    assert not csvtext._shortest(FLOAT_CASES["subnormals"][:5000])[2].any()


@pytest.mark.parametrize("case", sorted(JSON_TABLES))
def test_json_passes_match_json_dumps_indent1(case, monkeypatch):
    monkeypatch.setattr(csvtext, "_MIN_CELLS", 0)
    meta, columns = JSON_TABLES[case]
    assert cli._render("json", meta, columns) == _indent1_json(meta, columns)


@pytest.mark.parametrize("rows", [csvtext._MIN_CELLS - 1, csvtext._MIN_CELLS,
                                  csvtext._MIN_CELLS + 1])
def test_json_writer_matches_json_dumps_either_side_of_the_crossover(
        rows, mix_solution, monkeypatch):
    blocks = []
    block = csvtext._block
    monkeypatch.setattr(csvtext, "_block", lambda *a: blocks.append(a) or block(*a))
    i = np.arange(rows)
    l = mix_solution.l_hat.values[:rows].copy()
    l[::7], l[1::11], l[2::13] = math.nan, math.inf, -math.inf
    columns = {"l": l, "y": mix_solution.grid.points[:rows].astype(np.float32),
               "region": (i % 3 + 1).astype(np.int8), "n": i * 1001 - 7,
               "feasible": i % 2 == 0, "rule": np.where(i % 3 == 0, "robust", 'say "é"')}
    meta = {"alpha": 4.0, "mode": "general", "z": math.nan}
    assert cli._render("json", meta, columns) == _indent1_json(meta, columns)
    assert len(blocks) == (len(columns) if rows >= csvtext._MIN_CELLS else 0)


def test_json_writer_certifies_every_float_of_a_40k_solution(norm_solution_40k, monkeypatch):
    # every float goes through the passes and none falls back to repr
    counts = []
    shortest = csvtext._shortest

    def counted(values):
        n, x, slow = shortest(values)
        counts.append((values.size, int(slow.sum())))
        return n, x, slow

    monkeypatch.setattr(csvtext, "_shortest", counted)
    meta, columns = cli._solution_table(norm_solution_40k)
    cli._render("json", meta, columns)
    floats = sum(v.size for v in columns.values() if v.dtype.kind == "f")
    assert sum(size for size, _ in counts) == floats > 8 * 40000
    assert sum(slow for _, slow in counts) == 0


RAGGED = {k for k, (_, cols) in JSON_TABLES.items() if len({len(v) for v in cols.values()}) > 1}


@pytest.mark.parametrize("case", sorted(set(JSON_TABLES) - RAGGED))
def test_csv_writer_matches_the_row_loop(case, csv_path):
    meta, columns = JSON_TABLES[case]
    assert cli._render("csv", meta, columns) == _loop_csv(meta, columns)


def test_csv_writer_matches_the_row_loop_on_solutions(mix_solution, norm_solution_40k,
                                                      mix_spec, mix_nominals, norm_pair,
                                                      norm_grid):
    # the anchor also on 40001 points, and a symmetric solve's table
    anchor_40k = solve_thresholds(mix_spec, mix_nominals, density.make_grid(-8.0, 9.0, 40001))
    symmetric = solve_symmetric(0.2, 2.0, 1.0, norm_pair, norm_grid)
    assert symmetric.thresholds.l_l * symmetric.thresholds.l_u == pytest.approx(1.0, abs=1e-15)
    for sol in (mix_solution, norm_solution_40k, anchor_40k, symmetric):
        meta, columns = cli._solution_table(sol)
        assert cli._render("csv", meta, columns) == _loop_csv(meta, columns)


CSV_COMMANDS = {
    # l and l_hat are inf where f0 underflows to 0
    "solve-inf-ratio": {"command": "solve", "nominal0": "gaussian(-1,1)",
                        "nominal1": "gaussian(1,1)", "alpha": "2", "eps0": "0.05",
                        "eps1": "0.05", "grid": "-40:40:801"},
    "closed-form-limits": {"command": "limits", "alpha": "0.5", "eps0": "0.2"},
    "surface": {"command": "surface", "alpha": "0.5", "n": "33"},
    "evaluate": {"command": "evaluate", "nominal0": "gaussian(-1,1)",
                 "nominal1": "gaussian(1,1)", "alpha": "0.5", "eps0": "0.02",
                 "eps1": "0.02", "grid": "-9:9:1001", "mc": "2000:5"},
    # eps1 = 0.40 is infeasible at alpha 4, so that order's row is NaN
    "sweep-alpha-failed": {"command": "sweep-alpha", "nominal0": MIX0, "nominal1": MIX1,
                           "alphas": "2, 4", "eps0": "0.02", "eps1": "0.40",
                           "grid": "-8:9:4001"},
    # the general boundary of the anchor pair
    "surface-anchor": {"command": "surface", "nominal0": MIX0, "nominal1": MIX1,
                       "grid": "-8:9:4001", "alpha": "4", "n": "9"},
    "limits-anchor": {"command": "limits", "nominal0": MIX0, "nominal1": MIX1,
                      "grid": "-8:9:4001", "alpha": "4", "eps0": "0.02"},
}


@pytest.mark.parametrize("case", sorted(CSV_COMMANDS))
def test_csv_writer_matches_the_row_loop_on_commands(case, csv_path):
    cfg = CSV_COMMANDS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        meta, columns = cli._COMMANDS[cfg["command"]][0](cfg)
    text = cli._render("csv", meta, columns)
    assert text == _loop_csv(meta, columns)
    if case == "sweep-alpha-failed":
        assert text.endswith("\n4,nan,nan,nan\n")


@pytest.mark.parametrize("cells", [csvtext._MIN_CELLS - 1, csvtext._MIN_CELLS])
def test_csv_writer_matches_the_row_loop_either_side_of_the_crossover(
        cells, mix_solution, monkeypatch):
    blocks = []
    block = csvtext._block
    monkeypatch.setattr(csvtext, "_block", lambda *a: blocks.append(a) or block(*a))
    tables = [{"delta_hat": mix_solution.delta_hat.values[:cells]}]
    if cells % 4 == 0:
        rows = cells // 4
        tables.append({"y": mix_solution.grid.points[:rows].astype(np.float32),
                       "region": np.arange(rows, dtype=np.int8) % 3 + 1,
                       "feasible": np.arange(rows) % 2 == 0,
                       "rule": np.where(np.arange(rows) % 2 == 0, "robust", "lrt")})
    for columns in tables:
        blocks.clear()
        assert cli._render("csv", {"n": cells}, columns) == _loop_csv({"n": cells}, columns)
        assert bool(blocks) == (cells >= csvtext._MIN_CELLS)


@pytest.mark.parametrize("columns", [
    {"x": [1.0, 2.0, 3.0], "y": [4.0]},
    {"x": np.arange(700.0), "y": [4.0]},
    *(JSON_TABLES[k][1] for k in sorted(RAGGED)),
], ids=["short", "long", *sorted(RAGGED)])
def test_csv_refuses_columns_of_different_lengths(columns, csv_path):
    lengths = ", ".join(f"{k} has {len(v)}" for k, v in columns.items())
    with pytest.raises(ValueError, match=f"CSV columns differ in length: {lengths}"):
        cli._render("csv", {"a": 1.0}, columns)
    # JSON writes every item of every column
    payload = json.loads(cli._render("json", {"a": 1.0}, columns))
    assert {k: len(v) for k, v in payload["columns"].items()} == {
        k: len(v) for k, v in columns.items()}


def test_json_writes_infinite_ratio_as_bare_infinity(tmp_path, capsys):
    # f0 underflows to 0 where f1 does not (37.7 <= y <= 39.6), so l is +inf
    # there: JSON writes Python's Infinity token, CSV writes inf
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(
        "command = solve\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 2\neps0 = 0.05\neps1 = 0.05\ngrid = -40:40:801\n")
    code, text, err = run_main(["--config", str(cfg), "--format", "json"], capsys)
    assert code == 0 and err == ""
    assert "\n   Infinity,\n" in text and "NaN" not in text and "null" not in text

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    with pytest.raises(ValueError, match="Infinity"):
        json.loads(text, parse_constant=refuse)
    cols = json.loads(text)["columns"]
    inf_rows = [i for i, v in enumerate(cols["l"]) if v == math.inf]
    assert len(inf_rows) == 20
    assert all(cols["f0"][i] == 0.0 < cols["f1"][i] for i in inf_rows)
    code, text, _ = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    _, names, rows = read_csv(text)
    assert [rows[i][names.index("l")] for i in inf_rows] == ["inf"] * 20


def test_closed_form_limits_writes_nan_multipliers(capsys):
    code, out, _ = run_main(LIMITS_ARGS, capsys)
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0][2:] == ["nan", "nan"]
    code, out, _ = run_main([*LIMITS_ARGS, "--format", "json"], capsys)
    assert code == 0
    cols = json.loads(out)["columns"]
    assert cols["lambda0"] == [None] and cols["lambda1"] == [None]
    assert cols["eps0"] == [0.2]


def test_surface_writes_feasible_as_integer_and_boolean(tmp_path, capsys):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("command = surface\nalpha = 0.5\nn = 3\n")
    code, out, _ = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    _, names, rows = read_csv(out)
    assert [row[names.index("feasible")] for row in rows] == ["1"] * 3
    code, out, _ = run_main(["--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    feasible = json.loads(out)["columns"]["feasible"]
    assert len(feasible) == 3 and all(v is True for v in feasible)


def test_evaluate_csv_and_json_carry_the_same_values(tmp_path, capsys):
    cfg = tmp_path / "ev.cfg"
    cfg.write_text(
        "command = evaluate\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.02\neps1 = 0.02\ngrid = -9:9:1001\nmc = 2000:5\n")
    code, text, _ = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    meta, names, rows = read_csv(text)
    code, text, _ = run_main(["--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(text)
    assert {k: float(v) for k, v in meta.items()} == payload["meta"]
    assert list(payload["columns"]) == sorted(names)
    for name, cells in zip(names, zip(*rows)):
        values = payload["columns"][name]
        assert len(values) == len(cells) == 6
        for cell, value in zip(cells, values):
            if isinstance(value, str):
                assert cell == value
            elif value is None:
                assert cell == "nan"
            else:
                assert float(cell) == value


# ---------------------------------------------------------------------------
# exit codes


def test_exit_infeasible_radii(anchor_config, capsys):
    code, _, err = run_main(
        ["--config", anchor_config, "--eps1", "0.40"], capsys)
    assert code == 2
    assert "infeasible radii" in err and "not strictly inside" in err


def test_exit_config_errors(tmp_path, capsys):
    # missing required key
    code, _, err = run_main(["--command", "solve", "--alpha", "4"], capsys)
    assert code == 1 and "configuration error" in err
    # unknown key in the config file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = solve\nbogus = 1\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and "unknown config keys" in err
    # unknown command
    cfg.write_text("command = explode\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and "unknown command" in err
    # malformed config line
    cfg.write_text("command solve\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and "key=value" in err
    # missing config file
    code, _, err = run_main(["--config", str(tmp_path / "none.cfg")], capsys)
    assert code == 1 and "cannot read config" in err
    # Monte Carlo below the CLT floor
    cfg.write_text(
        "command = evaluate\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.02\neps1 = 0.02\ngrid = -9:9:2001\nmc = 500:1\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and "at least 1000" in err


# per command: every key it reads, and keys that only other commands read
_PAIR_KEYS = {"nominal0": "gaussian(-1,1)", "nominal1": "gaussian(1,1)", "grid": "-9:9:401"}
COMMAND_KEYS = {
    "solve": ({**_PAIR_KEYS, "alpha": "4", "rho": "1", "eps0": "0.02", "eps1": "0.03"},
              {"a": "0.9", "alphas": "1,2", "n": "7"}),
    "solve-symmetric": ({**_PAIR_KEYS, "alpha": "4", "rho": "1", "eps": "0.02"},
                        {"eps0": "0.02", "mc": "2000:1"}),
    "limits": ({**_PAIR_KEYS, "alpha": "4", "rho": "1.2", "eps0": "0.02", "a": "0.5"},
               {"mc": "2000:1", "eps": "0.02"}),
    "surface": ({**_PAIR_KEYS, "alpha": "4", "rho": "1.2", "n": "9", "a": "0.5"},
                {"eps0": "0.02", "alphas": "1,2"}),
    "evaluate": ({**_PAIR_KEYS, "alpha": "4", "rho": "1", "eps0": "0.02", "eps1": "0.03",
                  "mc": "2000:1"}, {"n": "7", "eps": "0.02"}),
    "sweep-alpha": ({**_PAIR_KEYS, "alphas": "2,4", "rho": "1", "eps0": "0.02",
                     "eps1": "0.03"}, {"alpha": "4", "mc": "2000:1"}),
    "sweep-snr": ({"nominal0": "gaussian(0,1)", "grid": "-9:9:401", "alpha": "0.5", "rho": "1",
                   "eps0": "0.02", "eps1": "0.02", "mc": "2000:1", "amplitudes": "1",
                   "snr_db": "0"}, {"nominal1": "gaussian(1,1)", "n": "7"}),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_refuses_the_keys_it_does_not_read(tmp_path, capsys, command):
    reads, stray = COMMAND_KEYS[command]
    cli._check_keys(command, {"command": command, "format": "json", "out": "-", **reads})
    cfg = tmp_path / "stray.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {"command": command, **reads, **stray}.items()))
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert f"unknown config keys for {command}: {', '.join(sorted(stray))}" in err


def test_exit_bad_flag_is_config_error(capsys):
    # the usage text goes to the stderr of the failing call, and the parser,
    # kept for the next call, still serves it
    failing = io.StringIO()
    with contextlib.redirect_stderr(failing), pytest.raises(SystemExit) as info:
        cli.main(["--no-such-flag"])
    assert info.value.code == 1
    text = failing.getvalue()
    assert text.startswith("usage: robustlrt [-h] [--config CONFIG]")
    assert text.endswith("\nrobustlrt: error: unrecognized arguments: --no-such-flag\n")
    assert capsys.readouterr() == ("", "")
    code, out, err = run_main(LIMITS_ARGS, capsys)
    assert code == 0 and err == ""
    assert float(read_csv(out)[2][0][1]) == pytest.approx(LIMITS_A0_PARTNER_OF_02, rel=1e-9)


# ---------------------------------------------------------------------------
# one parser per process: `main` builds it on its first call and reuses it


def test_main_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **k: (built.append(self), init(self, *a, **k))[1])
    cli._parser.cache_clear()
    for _ in range(4):
        code, out, _ = run_main(LIMITS_ARGS, capsys)
        assert code == 0 and out
    assert len(built) == 1 and cli._parser() is built[0]


# Counts the parsers and arguments built in a fresh interpreter: none at
# import, one parser of 10 options (and its -h) at the first `main`, no
# more at later calls.
COUNT_BUILDS = """\
import argparse, contextlib, io, sys
counts = {"parsers": 0, "arguments": 0}
init, add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument
def counted_init(self, *a, **k):
    counts["parsers"] += 1
    init(self, *a, **k)
def counted_add(self, *a, **k):
    counts["arguments"] += 1
    return add(self, *a, **k)
argparse.ArgumentParser.__init__ = counted_init
argparse.ArgumentParser.add_argument = counted_add
from robustlrt import cli
print(counts["parsers"], counts["arguments"])
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
    print(counts["parsers"], counts["arguments"])
"""


def test_import_builds_no_parser():
    proc = subprocess.run([sys.executable, "-c", COUNT_BUILDS, *LIMITS_ARGS],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 0", "1 11", "1 11", "1 11"]


# Prints, in a fresh interpreter, the package modules that have run after
# importing the CLI and after each run of the configs given; then checks
# that every exported name resolves to the object of each module that holds
# it, and prints the error of an unknown name.  A deferred module sits in
# sys.modules from the package's import on, as a lazy module, and becomes a
# plain module when it runs.
MODULES_RUN = """\
import contextlib, importlib, io, pkgutil, sys, types
import robustlrt.cli
def ran():
    return " ".join(sorted(n.split(".")[1] for n, m in sys.modules.items()
                           if n.startswith("robustlrt.") and type(m) is types.ModuleType))
print(ran())
for cfg in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert robustlrt.cli.main(["--config", cfg]) == 0
    print(ran())
modules = [vars(importlib.import_module(f"robustlrt.{m.name}"))
           for m in pkgutil.iter_modules(robustlrt.__path__)]
for name in robustlrt.__all__[1:]:
    held = [m[name] for m in modules if name in m]
    assert held and all(h is getattr(robustlrt, name) for h in held), name
names = {}
exec("from robustlrt import *", names)
assert set(robustlrt.__all__) <= set(names) and set(robustlrt.__all__) <= set(dir(robustlrt))
try:
    robustlrt.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_each_command_runs_only_its_modules(tmp_path):
    # limits and surface need neither the solver nor its kernels, and only
    # evaluate and the sweeps need the evaluation; no command needs the oracle
    pair = (f"nominal0 = {MIX0}\nnominal1 = {MIX1}\ngrid = -8:9:401\nalpha = 4\n"
            "eps0 = 0.02\n")
    configs = []
    for command, extra in (("limits", ""), ("surface", "n = 5\n"), ("solve", "eps1 = 0.03\n")):
        cfg = tmp_path / f"{command}.cfg"
        text = f"command = {command}\n{pair}{extra}"
        cfg.write_text(text.replace("eps0 = 0.02\n", "") if command == "surface" else text)
        configs.append(str(cfg))
    proc = subprocess.run([sys.executable, "-c", MODULES_RUN, *configs],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    startup = "cli csvtext density divergence limits roots"
    assert proc.stdout.splitlines() == [
        startup, startup, startup,
        "cli csvtext density divergence kernels lfd_solver limits roots",
        "module 'robustlrt' has no attribute 'no_such_name'"]


def test_no_flag_leaks_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("command = limits\nalpha = 0.5\neps0 = 0.2\n")
    code, out, _ = run_main(["--config", str(cfg), "--eps0", "0.05"], capsys)
    assert code == 0 and read_csv(out)[2][0][0] == "0.050000000000000003"
    code, out, _ = run_main(["--config", str(cfg)], capsys)
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0][0] == "0.20000000000000001"
    assert float(rows[0][1]) == pytest.approx(LIMITS_A0_PARTNER_OF_02, rel=1e-9)


def test_help_is_a_fresh_parsers_help(capsys):
    cli._parser()  # built before the help call, as in a long-lived process
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == cli._parser.__wrapped__().format_help()
    assert out.startswith("usage: robustlrt ")


def test_exit_nonconvergence(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NonConvergenceError("stalled at residual 1e-3")

    monkeypatch.setattr(lfd_solver, "solve_thresholds", boom)
    cfg = tmp_path / "nc.cfg"
    cfg.write_text("nominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n")
    code, _, err = run_main(
        ["--config", str(cfg), "--command", "solve", "--alpha", "4",
         "--eps0", "0.02", "--eps1", "0.03", "--grid=-8:9:101"], capsys)
    assert code == 3
    assert "did not converge" in err


def test_bad_format_is_refused_before_any_solve(anchor_config, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the solve ran before the format was checked")

    monkeypatch.setattr(lfd_solver, "solve_thresholds", never)
    cfg = tmp_path / "xml.cfg"
    cfg.write_text(Path(anchor_config).read_text() + "format = xml\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "format must be csv or json" in err


def test_negative_mc_seed_is_refused_before_any_solve(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the solve ran before mc was checked")

    monkeypatch.setattr(lfd_solver, "solve_thresholds", never)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(
        "command = evaluate\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
        "alpha = 0.5\neps0 = 0.02\neps1 = 0.02\ngrid = -9:9:401\nmc = 1000:-1\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "configuration error" in err and "mc seed must be nonnegative" in err


@pytest.mark.parametrize("grid", ["-9:inf:401", "-inf:9:401", "nan:9:401"])
def test_non_finite_grid_bounds_are_config_errors(tmp_path, capsys, grid):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("command = solve\nnominal0 = gaussian(-1,1)\nnominal1 = gaussian(1,1)\n"
                   "alpha = 4\neps0 = 0.02\neps1 = 0.02\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(["--config", str(cfg), f"--grid={grid}"], capsys)
    assert code == 1 and out == ""
    assert "configuration error" in err and "grid min and max must be finite" in err


def test_grid_whose_span_overflows_is_a_config_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run({"command": "limits", "nominal0": "gaussian(-1,1)",
                        "nominal1": "gaussian(1,1)", "alpha": "4", "eps0": "0.01",
                        "grid": "-1e308:1e308:5"})
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "configuration error: grid span [-1e+308, 1e+308] is not finite\n"


def test_unwritable_out_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_main([*LIMITS_ARGS, "--out", str(target)], capsys)
    assert code == 1 and out == ""
    assert "configuration error" in err and "cannot write" in err
    assert not target.exists()


@pytest.mark.parametrize("n", ["2.7", "1e400", "many"])
def test_surface_point_count_must_be_an_integer(tmp_path, capsys, n):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text(f"command = surface\nalpha = 0.5\nn = {n}\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "configuration error" in err and "integer" in err


# ---------------------------------------------------------------------------
# console script entry point

# What pip's generated console script does, with the "module:attr" target
# taken from argv[1] instead of being written into the file.
WRAPPER = """\
import importlib, re, sys
module, _, attr = sys.argv.pop(1).partition(":")
sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
sys.exit(getattr(importlib.import_module(module), attr)())
"""

LIMITS_ARGS = ["--command", "limits", "--alpha", "0.5", "--eps0", "0.2"]


def assert_limits_a0_output(proc):
    assert proc.returncode == 0, proc.stderr
    meta, _, rows = read_csv(proc.stdout)
    assert meta["mode"] == "closed-form"
    assert float(rows[0][1]) == pytest.approx(LIMITS_A0_PARTNER_OF_02, rel=1e-9)


def test_console_script_runs():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    target = scripts.get("robustlrt")
    assert target == "robustlrt.cli:main"

    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, target, *LIMITS_ARGS],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert_limits_a0_output(proc)

    installed = shutil.which("robustlrt")
    if installed is not None:
        proc = subprocess.run([installed, *LIMITS_ARGS],
                              capture_output=True, text=True, timeout=120)
        assert_limits_a0_output(proc)
