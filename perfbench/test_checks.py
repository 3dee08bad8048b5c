"""The benchmark's checkers accept real CLI output and reject corrupted copies.

    python3 -m pytest perfbench/test_checks.py

Each test runs one small CLI job, checks that its output passes, then
corrupts one thing the corresponding check guards and expects a failure.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from robustlrt import cli  # noqa: E402
from run import JobRunner  # noqa: E402


def run_job(tmp_path, job):
    rc, _, err, table = JobRunner(cli, checks.parse_table, tmp_path).run(job)
    assert rc == 0, err
    return table


def make_job(pair, command, **keys):
    cfg = {"command": command, "nominal0": pair.spec0, "nominal1": pair.spec1,
           "grid": pair.grid(801), "rho": 1.0}
    cfg.update(keys)
    return workloads.Job(f"test/{command}", pair, cfg)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    job = make_job(workloads.ANCHOR, "solve", alpha=4.0, eps0=0.02, eps1=0.03)
    return job, run_job(tmp_path_factory.mktemp("solve"), job)


def test_solution_passes(solved):
    job, table = solved
    assert checks.check(job, table) == []


def test_scaled_density_table_is_rejected(solved):
    job, table = solved
    bad = copy.deepcopy(table)
    bad.cols["g0_hat"] = bad.cols["g0_hat"] * 1.001
    bad.cols["g1_hat"] = bad.cols["g1_hat"] * 1.001
    fails = checks.check(job, bad)
    assert any("has mass" in f for f in fails), fails


def test_delta_off_the_bayes_rule_is_rejected(solved):
    job, table = solved
    bad = copy.deepcopy(table)
    upper = bad.cols["region"] == 3
    bad.cols["delta_hat"][upper] = 0.99
    fails = checks.check(job, bad)
    assert any("is not the Bayes error" in f for f in fails), fails


def test_symmetric_solution_passes(tmp_path):
    job = make_job(workloads.GAUSS, "solve-symmetric", alpha=2.0, eps=0.2)
    assert checks.check(job, run_job(tmp_path, job)) == []


@pytest.fixture(scope="module")
def limited(tmp_path_factory):
    job = make_job(workloads.ANCHOR, "limits", alpha=4.0, eps0=0.1)
    return job, run_job(tmp_path_factory.mktemp("limits"), job)


def test_limits_row_passes(limited):
    job, table = limited
    assert checks.check(job, table) == []


def test_perturbed_multiplier_is_rejected(limited):
    job, table = limited
    bad = copy.deepcopy(table)
    bad.cols["lambda0"] = bad.cols["lambda0"] * (1.0 + 1e-6)
    fails = checks.check(job, bad)
    assert any("touching density" in f for f in fails), fails


def test_negative_radius_is_rejected(tmp_path):
    job = workloads._negative_radius_fault()
    fails = checks.check(job, run_job(tmp_path, job))
    assert any("negative radius" in f for f in fails), fails
    # only this failure counts as the known fault; any other is a real one
    assert job.known_fault.explains(fails), fails
    assert not job.known_fault.explains(fails[:1])
    assert not job.known_fault.explains(fails + ["mode 'closed', expected 'general'"])
    assert not job.known_fault.explains(["exit 1: error: ..."])
    assert not workloads.FAULT_OFF_CENTER.explains(fails)


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    job = make_job(workloads.ANCHOR, "evaluate", alpha=4.0, eps0=0.02,
                   eps1=0.03, mc="200000:7")
    return job, run_job(tmp_path_factory.mktemp("evaluate"), job)


def test_evaluate_rows_pass(evaluated):
    job, table = evaluated
    assert checks.check(job, table) == []


def test_mc_row_moved_by_five_half_widths_is_rejected(evaluated):
    job, table = evaluated
    bad = copy.deepcopy(table)
    mc = np.nonzero(np.array(bad.cols["method"]) == "monte_carlo")[0][0]
    bad.cols["p_fa"][mc] += 5.0 * bad.cols["hw_fa"][mc]
    fails = checks.check(job, bad)
    assert any("half-widths" in f for f in fails), fails


@pytest.mark.parametrize("alpha, n", [(2.0, 5), (0.5, 9)])
def test_surfaces_pass(tmp_path, alpha, n):
    job = make_job(workloads.ANCHOR, "surface", alpha=alpha, n=n)
    assert checks.check(job, run_job(tmp_path, job)) == []


def test_rising_surface_is_rejected(tmp_path):
    job = make_job(workloads.ANCHOR, "surface", alpha=0.5, n=9)
    bad = run_job(tmp_path, job)
    bad.cols["eps1"][3] = bad.cols["eps1"][2] * 1.01
    fails = checks.check(job, bad)
    assert any("increases" in f for f in fails), fails


def test_oracle_accepts_the_saddle_and_rejects_another_rule(solved):
    job, table = solved
    assert checks.oracle_failures(job, table) == []
    bad = copy.deepcopy(table)
    bad.cols["delta_hat"] = np.full_like(bad.cols["delta_hat"], 0.5)
    fails = checks.oracle_failures(job, bad)
    assert any("oracle saddle value" in f for f in fails), fails
