"""Job mixes of the three benchmark workloads.

A workload's round is a fixed list of CLI jobs (commands, pairs, orders,
priors and grid sizes); the radii and Monte Carlo seeds are drawn once per
run from the seeded generator, so every round of a run repeats the same
jobs.  A round runs each timed job `PASSES[workload]` times and each
known-fault job once.  Every run attempts whole rounds, so the share of jobs
that fail because of a known fault is the same in every run whatever the
seed and the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIX = "mixture(0.5*gaussian(-2,1)+0.5*gaussian(2,1))"


@dataclass(frozen=True)
class Pair:
    """A nominal density pair: CLI spec strings plus Gaussian components.

    The components let the checks evaluate both densities with their own
    formula instead of the package's density module.
    """

    name: str
    spec0: str
    spec1: str
    comps0: tuple
    comps1: tuple
    lo: float
    hi: float

    def grid(self, n: int) -> str:
        return f"{self.lo:g}:{self.hi:g}:{n}"

    def pdfs(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _mixture_pdf(self.comps0, y), _mixture_pdf(self.comps1, y)


def _mixture_pdf(comps, y):
    out = np.zeros_like(y)
    for w, m, s in comps:
        z = (y - m) / s
        out += w * np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
    return out


# bimodal noise, unit antipodal shift: the package's anchor problem
ANCHOR = Pair("anchor", MIX, f"shift({MIX},1)",
              ((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)),
              ((0.5, -1.0, 1.0), (0.5, 3.0, 1.0)), -8.0, 9.0)
# N(-1, 1) against N(1, 1): mirror-symmetric, monotone likelihood ratio
GAUSS = Pair("gauss", "gaussian(-1,1)", "gaussian(1,1)",
             ((1.0, -1.0, 1.0),), ((1.0, 1.0, 1.0),), -9.0, 9.0)

# Radius boxes (eps0 range, eps1 range) per (pair, alpha, rho).  Each box
# sits between a quarter and a half of the distance to the admissible
# boundary along the diagonal, where the solver converges for every draw.
BOXES = {
    ("anchor", -1.0, 1.0): ((0.015, 0.025), (0.020, 0.030)),
    ("anchor", 0.5, 1.0): ((0.020, 0.030), (0.025, 0.040)),
    ("anchor", 2.0, 1.0): ((0.020, 0.030), (0.025, 0.040)),
    ("anchor", 4.0, 1.0): ((0.015, 0.025), (0.025, 0.035)),
    ("anchor", 4.0, 0.8): ((0.009, 0.014), (0.0105, 0.0175)),
    ("gauss", -1.0, 1.0): ((0.07, 0.10), (0.08, 0.12)),
    ("gauss", 0.5, 1.0): ((0.10, 0.16), (0.12, 0.20)),
    ("gauss", 2.0, 1.0): ((0.15, 0.25), (0.18, 0.30)),
    ("gauss", 4.0, 1.0): ((0.35, 0.60), (0.45, 0.70)),
    ("gauss", 4.0, 0.8): ((0.23, 0.37), (0.28, 0.46)),
    ("gauss", 2.0, 1.2): ((0.21, 0.34), (0.26, 0.42)),
    ("gauss", -1.0, 1.2): ((0.05, 0.08), (0.06, 0.10)),
}

# Fixed radius eps0 of the `limits` jobs, per alpha, on the anchor pair.
LIMIT_BOXES = {-1.0: (0.05, 0.25), 0.5: (0.03, 0.15), 2.0: (0.05, 0.25), 4.0: (0.05, 0.50)}

MC_SAMPLES = 1_000_000

@dataclass(frozen=True)
class Fault:
    """A known fault and the failure messages it gives today.

    `signs` holds one text per message, in order; each message must contain
    its text.  Any other failure of the job is not this fault.  `fixed_exit`
    is an exit code that, besides 0 with passing checks, shows the fault
    fixed.
    """

    name: str
    signs: tuple[str, ...]
    fixed_exit: int | None = None

    def explains(self, fails: list[str]) -> bool:
        return len(fails) == len(self.signs) and all(
            sign in f for f, sign in zip(fails, self.signs))


# Known faults, kept as jobs that count as failed until a fix lands.
FAULT_OFF_CENTER = Fault("solve-rho1.5", ("exit 3: ",))
# the printed eps1 is negative, so the touching density cannot sit at it
FAULT_NEGATIVE_RADIUS = Fault("limits-negative-radius",
                              ("negative radius in (0, -", "printed eps1 = -"), fixed_exit=2)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how its output is judged.

    `config` holds every key of the job's config file except `out`; its
    `command` picks the checker.  `known_fault` is a fault that makes this
    job fail today; such a job is not timed, and it counts as failed without
    making the run incorrect only while it fails the way the fault does.
    `oracle` marks the job whose table the discrete oracle judges once per
    run, outside the timed loop.
    """

    label: str
    pair: Pair
    config: dict
    known_fault: Fault | None = None
    oracle: bool = False

    @property
    def fmt(self) -> str:
        return self.config.get("format", "csv")


# A run draws each radius within this share of its box's midpoint.  A
# solve's cost varies up to twofold across a whole box, as the threshold
# search takes another path, which would make the seed, not the code, set
# the timings.
DRAW_SPREAD = 0.002


def _draw(rng, box):
    mid = 0.5 * (box[0] + box[1])
    return float(round(mid * (1.0 + DRAW_SPREAD * rng.uniform(-1.0, 1.0)), 6))


def _base(pair: Pair, command: str, n: int, alpha: float, rho: float) -> dict:
    return {"command": command, "nominal0": pair.spec0, "nominal1": pair.spec1,
            "grid": pair.grid(n), "alpha": alpha, "rho": rho}


def _solve(rng, pair, alpha, rho, n, command="solve", oracle=False, fmt="csv",
           mc_seed=None) -> Job:
    b0, b1 = BOXES[(pair.name, alpha, rho)]
    cfg = _base(pair, command, n, alpha, rho)
    if command == "solve-symmetric":
        cfg["eps"] = _draw(rng, b0)
    else:
        cfg["eps0"], cfg["eps1"] = _draw(rng, b0), _draw(rng, b1)
    if mc_seed is not None:
        cfg["mc"] = f"{MC_SAMPLES}:{mc_seed}"
    cfg["format"] = fmt
    label = f"{command}/{pair.name}/a{alpha:g}/rho{rho:g}/n{n}"
    return Job(label, pair, cfg, oracle=oracle)


def _off_center_fault() -> Job:
    # exits 3 after a long search although a root exists at
    # (l_l, l_u) = (0.869724, 1.400974); inputs do not depend on the seed
    cfg = _base(ANCHOR, "solve", 4001, 4.0, 1.5)
    cfg["eps0"] = cfg["eps1"] = 0.005
    return Job("solve/anchor/a4/rho1.5/n4001", ANCHOR, cfg, known_fault=FAULT_OFF_CENTER)


def _negative_radius_fault() -> Job:
    # exits 0 and prints eps1 < 0 from the zero-radius closed-form branch
    cfg = _base(ANCHOR, "limits", 4001, 0.5, 1.2)
    cfg["eps0"] = 0.0
    return Job("limits/anchor/a0.5/rho1.2/eps0=0", ANCHOR, cfg,
               known_fault=FAULT_NEGATIVE_RADIUS)


def warmup_job() -> Job:
    """A small untimed solve that pays first-call costs before timing."""
    cfg = _base(ANCHOR, "solve", 401, 4.0, 1.0)
    cfg["eps0"], cfg["eps1"] = 0.02, 0.03
    return Job("warm-up", ANCHOR, cfg)


def solve_4k(rng) -> list[Job]:
    n = 4001
    jobs = [_solve(rng, ANCHOR, a, 1.0, n, oracle=a == 4.0) for a in (-1.0, 0.5, 2.0, 4.0)]
    jobs += [_solve(rng, GAUSS, a, 1.0, n, "solve-symmetric", oracle=a == -1.0)
             for a in (-1.0, 0.5, 2.0, 4.0)]
    jobs += [_solve(rng, ANCHOR, 4.0, 1.0, n, "evaluate"),
             _solve(rng, ANCHOR, 0.5, 1.0, n, "evaluate"),
             _solve(rng, GAUSS, 2.0, 1.0, n, "evaluate"),
             _solve(rng, GAUSS, -1.0, 1.0, n, "evaluate")]
    jobs += [_solve(rng, GAUSS, 4.0, 0.8, n),
             _solve(rng, GAUSS, 2.0, 1.2, n),
             _solve(rng, ANCHOR, 4.0, 0.8, n),
             _solve(rng, GAUSS, -1.0, 1.2, n)]
    jobs.append(_off_center_fault())
    return jobs


def solve_40k(rng) -> list[Job]:
    n = 40001
    mc_seed = int(rng.integers(0, 2**31 - 1))
    return [
        _solve(rng, ANCHOR, 4.0, 1.0, n, oracle=True),
        _solve(rng, GAUSS, -1.0, 1.0, n, oracle=True, fmt="json"),
        _solve(rng, GAUSS, 2.0, 1.0, n, "solve-symmetric"),
        _solve(rng, ANCHOR, 4.0, 1.0, n, "evaluate", mc_seed=mc_seed),
        _solve(rng, GAUSS, 0.5, 1.0, n, "evaluate", mc_seed=mc_seed + 3),
    ]


def limits_surface(rng) -> list[Job]:
    n = 4001
    jobs = []
    for alpha, pts in ((4.0, 9), (2.0, 9), (0.5, 33)):
        cfg = _base(ANCHOR, "surface", n, alpha, 1.0)
        cfg["n"] = pts
        jobs.append(Job(f"surface/anchor/a{alpha:g}/n{pts}", ANCHOR, cfg))
    for alpha, box in LIMIT_BOXES.items():
        cfg = _base(ANCHOR, "limits", n, alpha, 1.0)
        cfg["eps0"] = _draw(rng, box)
        jobs.append(Job(f"limits/anchor/a{alpha:g}", ANCHOR, cfg))
    jobs.append(_negative_radius_fault())
    return jobs


WORKLOADS = {
    "solve-4k": solve_4k,
    "solve-40k": solve_40k,
    "limits-surface": limits_surface,
}

# Passes over the timed jobs per round.  Two on `solve-4k` give each run of
# known fault (a), ~6 s and untimed, twice the timed work.
PASSES = {"solve-4k": 2, "solve-40k": 1, "limits-surface": 1}


def round_jobs(workload: str, seed: int) -> list[Job]:
    """One round of a workload, its inputs drawn from `seed`.

    Timed jobs come `PASSES[workload]` times, each pass in the same order;
    known-fault jobs come once, at the end.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    jobs = WORKLOADS[workload](rng)
    timed = [job for job in jobs if job.known_fault is None]
    assert len({job.label for job in timed}) == len(timed), "job labels must be unique"
    return timed * PASSES[workload] + [job for job in jobs if job.known_fault]
