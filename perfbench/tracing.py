"""Span tracing of the package's public functions, from outside the package.

`Tracer.install` wraps every public function of the traced modules and
rebinds it everywhere the package holds a reference to it, including names
that modules imported from each other (`lfd_solver.region_masses`,
`cli.solve_thresholds`, ...).  Each call records one span: name, start, end,
parent span, job id and a size (grid points for the kernels, samples for
Monte Carlo).  Spans stay in memory in flat arrays until `write_csv`.
`layer_metrics` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "density", "divergence", "kernels", "lfd_solver", "limits", "evaluation")


def _grid_size(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _mc_samples(args, kwargs):
    # monte_carlo_errors(delta, model0, model1, rho, n, seed): n per hypothesis
    n = kwargs["n"] if "n" in kwargs else args[4]
    return 2 * int(n)


SIZES = {
    "kernels.region_masses": _grid_size,
    "kernels.i2_power_integrals": _grid_size,
    "kernels.augment_with_crossings": _grid_size,
    "evaluation.monte_carlo_errors": _mc_samples,
}


class Tracer:
    """Collects spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.paused = False  # wrapped calls record no span while set
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.size.append(size_of(args, kwargs) if size_of else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"robustlrt.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        holders = [m for n, m in sys.modules.items()
                   if n == "robustlrt" or n.startswith("robustlrt.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def arrays(self):
        return (np.array(self.names, dtype=str), np.array(self.name_id, dtype=np.int64),
                np.array(self.parent, dtype=np.int64), np.array(self.job, dtype=np.int64),
                np.array(self.size, dtype=np.int64), np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def write_csv(self, path, t_origin: float) -> None:
        names, nid, parent, job, size, start, end = self.arrays()
        with open(path, "w") as fh:
            fh.write("span,name,parent,job,size,start_s,end_s\n")
            for i in range(nid.size):
                fh.write(f"{i},{names[nid[i]]},{parent[i]},{job[i]},{size[i]},"
                         f"{start[i] - t_origin:.9f},{end[i] - t_origin:.9f}\n")


PER_LAYER = (
    # (name, unit, better); ".s", ".calls" and ".self_s" are per timed job
    ("cli.self_s", "s", "lower"),
    ("density.self_s", "s", "lower"),
    ("divergence.self_s", "s", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("lfd_solver.self_s", "s", "lower"),
    ("limits.self_s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("density.evaluate.s", "s", "lower"),
    ("divergence.alpha_divergence.s", "s", "lower"),
    ("kernels.region_masses.calls", "count", "lower"),
    ("kernels.i2_power_integrals.calls", "count", "lower"),
    ("kernels.region_masses.s", "s", "lower"),
    ("kernels.i2_power_integrals.s", "s", "lower"),
    ("kernels.augment_with_crossings.s", "s", "lower"),
    ("kernels.mpoints_per_s", "Mpoints/s", "higher"),
    ("lfd_solver.solve_thresholds.s", "s", "lower"),
    ("lfd_solver.solve_symmetric.s", "s", "lower"),
    ("lfd_solver.residual_evals_per_solve", "count", "lower"),
    ("lfd_solver.i2_calls_per_residual_eval", "ratio", "lower"),
    ("limits.preflight_s", "s", "lower"),
    ("limits.max_eps_general.calls", "count", "lower"),
    ("limits.max_eps_general.s", "s", "lower"),
    ("evaluation.error_probs.s", "s", "lower"),
    ("evaluation.monte_carlo_errors.s", "s", "lower"),
    ("evaluation.mc_samples_per_s", "samples/s", "higher"),
    ("trace.jobs_per_s", "jobs/s", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, jobs: int, jobs_per_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans of `jobs` jobs.

    `jobs_per_s` is the traced run's own rate, reported as `trace.jobs_per_s`.
    """
    names, nid, parent, _, size, start, end = tracer.arrays()
    names = np.append(names, "")  # id -1: no parent
    dur = end - start
    span_name = names[nid]
    parent_name = names[np.where(parent >= 0, nid[parent], -1)]
    layer = np.array([n.split(".", 1)[0] for n in names])[nid]
    child = parent >= 0
    self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)

    def is_(name):
        return span_name == name

    def inclusive(name):
        # outermost calls only, so a function that calls itself counts once
        sel = is_(name) & (parent_name != name)
        return float(dur[sel].sum())

    def inside(name, outer):
        # spans of `name` that run within some span of `outer`
        o = np.nonzero(is_(outer))[0]
        sel = np.nonzero(is_(name))[0]
        if o.size == 0 or sel.size == 0:
            return sel[:0]
        pos = np.searchsorted(start[o], start[sel], side="right") - 1
        ok = (pos >= 0) & (end[sel] <= end[o[np.maximum(pos, 0)]])
        return sel[ok]

    out: dict[str, float] = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = _ratio(float(self_time[layer == lay].sum()), jobs)
    for name in ("density.evaluate", "divergence.alpha_divergence",
                 "kernels.region_masses", "kernels.i2_power_integrals",
                 "kernels.augment_with_crossings", "lfd_solver.solve_thresholds",
                 "lfd_solver.solve_symmetric", "limits.max_eps_general",
                 "evaluation.error_probs", "evaluation.monte_carlo_errors"):
        out[f"{name}.s"] = _ratio(inclusive(name), jobs)
    for name in ("kernels.region_masses", "kernels.i2_power_integrals",
                 "limits.max_eps_general"):
        out[f"{name}.calls"] = _ratio(float(is_(name).sum()), jobs)
    kern = is_("kernels.region_masses") | is_("kernels.i2_power_integrals")
    out["kernels.mpoints_per_s"] = _ratio(float(size[kern].sum()) / 1e6, float(dur[kern].sum()))
    solves = float(is_("lfd_solver.solve_thresholds").sum())
    evals = inside("kernels.region_masses", "lfd_solver.solve_thresholds").size
    i2 = inside("kernels.i2_power_integrals", "lfd_solver.solve_thresholds").size
    out["lfd_solver.residual_evals_per_solve"] = _ratio(evals, solves)
    out["lfd_solver.i2_calls_per_residual_eval"] = _ratio(i2, evals)
    pre = is_("limits.max_eps_general") & (parent_name == "lfd_solver.solve_thresholds")
    out["limits.preflight_s"] = _ratio(float(dur[pre].sum()), jobs)
    mc = is_("evaluation.monte_carlo_errors")
    out["evaluation.mc_samples_per_s"] = _ratio(float(size[mc].sum()), float(dur[mc].sum()))
    out["trace.jobs_per_s"] = jobs_per_s
    return {name: out[name] for name, _, _ in PER_LAYER}
