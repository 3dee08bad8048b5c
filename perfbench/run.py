"""Benchmark of the robustlrt batch CLI: one workload, one seed, one process.

    python3 perfbench/run.py --workload solve-4k --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's job mix through `robustlrt.cli.main`, in
this process and on one thread, until `--seconds` have passed; every round
repeats the same jobs, drawn from `--seed`.  Times are scaled to the host's
usual speed (see HostSpeed), and a job's time is the median of its repeats.
Every job's output is checked (see checks.py); the discrete oracle judges
one solve per nominal pair after the timed loop.  With `--trace 0` the last line of stdout
is a JSON object with the end-to-end metrics; with `--trace 1` the package's
public functions are wrapped by tracing.py and the JSON carries the
per-layer metrics instead, and the spans are written to
`.perfbench-out/trace-<workload>-seed<seed>.csv`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools start when numpy loads, so these must be set first
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")}

SETUP_REPEATS = 5
# Seconds the reference work takes at the host's usual speed: a fixed
# constant near its median on the host of the reference figures, where
# single runs saw medians of 14 to 20 ms; see HostSpeed.
REFERENCE_S = 0.016
# The reference work after a timed interval runs for about this share of the
# interval, up to this many calls: over a few seconds the host's speed
# drifts more than two short samples show.
REFERENCE_SHARE = 0.05
REFERENCE_CALLS = 16
IMPORT_TIMER = ("import time; t = time.perf_counter(); import robustlrt, robustlrt.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_work(np, y) -> float:
    """Fixed work that uses no robustlrt code: short numpy calls on 4001
    points, passes over 40001 points, number formatting and a pure-Python
    loop, the kinds of work a CLI job does."""
    s = 0.0
    for i in range(64):
        z = y[::10] - 0.01 * i
        s += float(np.trapezoid(np.logaddexp(-0.5 * z * z, 0.1 * z), z))
    for i in range(4):
        s += float(np.cumsum(np.exp(-0.5 * (y - i) ** 2)).sum())
    s += len(",".join(f"{v:.6g}" for v in y[:6000]))
    for k in range(60000):
        s += k * 1e-9
    return s


class HostSpeed:
    """Scales measured seconds to the host's usual speed.

    The host is shared, and its other tenants slow every process on it by up
    to twofold, from one second to the next and for stretches of minutes;
    process CPU time slows alike.  So the fixed reference work runs before
    and after each timed interval, repeated for about REFERENCE_SHARE of the
    interval's length, and `scaled` multiplies the interval's seconds by
    REFERENCE_S over the mean time of the reference work around it.  A
    change to robustlrt leaves the reference work as it is, so it moves the
    scaled times as it moves the wall times.
    """

    def __init__(self, np):
        self.np = np
        self.y = np.linspace(-8.0, 9.0, 40001)
        self.factors = []
        self.last = self.measure()

    def measure(self, seconds: float = 0.0) -> float:
        """Mean time of the reference work, run for a share of `seconds`."""
        calls = min(REFERENCE_CALLS, 1 + int(REFERENCE_SHARE * seconds / REFERENCE_S))
        t0 = time.perf_counter()
        for _ in range(calls):
            reference_work(self.np, self.y)
        return (time.perf_counter() - t0) / calls

    def mark(self) -> None:
        """Measure the reference work just before a timed interval."""
        self.last = self.measure()

    def scaled(self, seconds: float) -> float:
        """`seconds` of the interval that just ended, at the usual speed."""
        before, self.last = self.last, self.measure(seconds)
        factor = REFERENCE_S / (0.5 * (before + self.last))
        self.factors.append(factor)
        return seconds * factor


def measure_setup(env, speed: HostSpeed) -> float:
    """Median time for a fresh interpreter to import robustlrt and its CLI."""
    times = []
    speed.mark()
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        seconds = speed.scaled(float(out.stdout.strip().splitlines()[-1]))
        if i:  # the first import also compiles bytecode; not timed
            times.append(seconds)
    return statistics.median(times)


class JobRunner:
    """Writes a job's config, runs it through cli.main, parses its output."""

    def __init__(self, cli, parse_table, workdir: Path):
        self.cli = cli
        self.parse_table = parse_table
        self.workdir = workdir
        self.count = 0

    def run(self, job):
        """Returns (exit code or None on an exception, seconds, stderr, table)."""
        self.count += 1
        cfg = self.workdir / f"job{self.count}.cfg"
        out = self.workdir / f"job{self.count}.{job.fmt}"
        lines = [f"{k} = {v}" for k, v in job.config.items()] + [f"out = {out}"]
        cfg.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(["--config", str(cfg)])
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            seconds = time.perf_counter() - t0
        table = None
        if rc == 0:
            table = self.parse_table(out.read_text(), job.fmt)
        cfg.unlink()
        out.unlink(missing_ok=True)
        return rc, seconds, err.getvalue(), table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustlrt" / "__init__.py").is_file():
        print(f"perfbench: no robustlrt sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import checks
    import tracing
    import workloads
    from robustlrt import cli, kernels

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# python {sys.version.split()[0]}, numpy {np.__version__}, scipy "
          f"{scipy.__version__}, kernels.BACKEND {kernels.BACKEND}, "
          f"nproc {len(os.sched_getaffinity(0))}, workload {args.workload}, "
          f"seed {args.seed}, trace {args.trace}")
    # one CPU for this process and the interpreters it starts, so that the
    # reference work runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        runner = JobRunner(cli, checks.parse_table, workdir)
        # untimed warm-up: lazy imports and first-call costs
        warm = workloads.warmup_job()
        if runner.run(warm)[0] != 0:
            print("perfbench: warm-up job failed", file=sys.stderr)
            return 1

        speed = HostSpeed(np)
        setup_s = None
        if not args.trace:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            setup_s = measure_setup(env, speed)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        # known-fault jobs are attempted in every round but not timed (nor
        # traced), so how long a failing job takes to give up is not measured
        round_jobs = workloads.round_jobs(args.workload, args.seed)
        times = {job.label: [] for job in round_jobs if job.known_fault is None}
        attempted, failed, correct = 0, 0, True
        fault_s = 0.0
        judged = {}
        t_begin = time.perf_counter()
        speed.mark()
        while True:
            for job in round_jobs:
                attempted += 1
                fault = job.known_fault
                if tracer:
                    tracer.job_id = attempted - 1
                    tracer.paused = fault is not None
                rc, wall, err, table = runner.run(job)
                seconds = speed.scaled(wall)
                if fault:
                    fault_s += seconds
                else:
                    times[job.label].append(seconds)
                if rc == 0:
                    fails = checks.check(job, table)
                    if job.oracle and not fails:
                        judged.setdefault(job.label, (job, table))
                elif fault and rc == fault.fixed_exit:
                    fails = []
                else:
                    last = err.strip().splitlines()[-1:] or [""]
                    fails = [f"exit {rc}: {last[0]}"]
                print(f"# job {attempted} {job.label} {wall:.4f} s, {seconds:.4f} s scaled "
                      f"{'failed' if fails else 'ok'}", file=sys.stderr)
                if fails:
                    failed += 1
                    known = fault is not None and fault.explains(fails)
                    kind = f"known fault {fault.name}" if known else "FAIL"
                    print(f"# {kind}: {job.label}: {'; '.join(fails)}", file=sys.stderr)
                    correct = correct and known
                elif fault:
                    print(f"# known fault {fault.name} no longer shows: {job.label}",
                          file=sys.stderr)
            if time.perf_counter() - t_begin >= args.seconds:
                break
        if tracer:
            tracer.uninstall()

        # the discrete oracle judges one solve per nominal pair, untimed
        for job, table in judged.values():
            fails = checks.oracle_failures(job, table)
            if fails:
                correct = False
                print(f"# FAIL oracle: {job.label}: {'; '.join(fails)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # each job's cost is the median of its scaled repeats
    best = [statistics.median(ts) for ts in times.values()]
    jobs_per_s = len(best) / sum(best)
    timed = sum(len(ts) for ts in times.values())
    total = sum(sum(ts) for ts in times.values())
    if tracer:
        metrics = tracing.layer_metrics(tracer, timed, jobs_per_s)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        outdir = ROOT / ".perfbench-out"
        outdir.mkdir(exist_ok=True)
        path = outdir / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(path, t_begin)
        print(f"# {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": jobs_per_s,
            "job_s.p50": statistics.median(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"# {attempted} jobs attempted, {failed} failed; {timed} timed runs of {len(best)} "
          f"jobs took {total:.2f} s scaled ({sum(best):.2f} s for the median of each), "
          f"{attempted - timed} known-fault jobs {fault_s:.2f} s; host speed factor "
          f"{min(speed.factors):.3f} to {max(speed.factors):.3f}, "
          f"median {statistics.median(speed.factors):.3f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
