"""Benchmark of greedy_eig, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus2d --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workloads (see workloads.py) run in this one process, in a closed loop: the
next job starts when the previous one returns.  The OpenBLAS thread count
is recorded; it is left as the environment sets it, except for the
workloads named in ``BLAS_THREADS``, which run with one thread.

A pass runs a fixed list of jobs: the first ones of the workload's order,
as many as the workload's nominal rate (``JOBS_PER_SECOND``, measured on a
2-core host) fits into ``--seconds``.  So the jobs, and with them the solves
attempted and failed, depend on the seed and ``--seconds`` alone, never on
how fast the machine ran; a slow machine takes longer over the same jobs.

With ``--trace 0`` the run measures one pass and reports the end-to-end
metrics.  ``setup_s`` is the median over several fresh interpreter
processes of the time from process start until the workload's operators
are built; the processes run one at a time, spread over the pass's jobs,
outside its timing.  With ``--trace 1`` the run measures an untraced pass
of half the length, then repeats the same jobs with the tracing wrappers
of tracing.py installed, and reports the per-layer metrics; the spans are
written to ``.bench_out/``.

The second-to-last line of standard output is a JSON record of the run
(environment, sample counts, broken invariants); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
# Workloads run with one OpenBLAS thread, set before numpy loads.  At the
# default two threads on two cores, one solve's time swung by up to 1.7x
# between calls; cli_oracle keeps the default, so the thread policy shows.
BLAS_THREADS = {"corpus2d": "1", "tensor4d": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import greedy_eig from this checkout's src/, never from elsewhere."""
    if not (SRC / "greedy_eig" / "__init__.py").is_file():
        raise SystemExit(f"error: no greedy_eig package under {SRC}")
    sys.path.insert(0, str(SRC))
    import greedy_eig

    if SRC not in Path(greedy_eig.__file__).resolve().parents:
        raise SystemExit(f"error: greedy_eig imported from {greedy_eig.__file__}")


# ---------------------------------------------------------------------------
# environment

def _openblas():
    """Thread count and config string of numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
    except (IndexError, OSError):
        return None, None
    threads = config = None
    if hasattr(lib, "scipy_openblas_get_num_threads64_"):
        fn = lib.scipy_openblas_get_num_threads64_
        fn.argtypes, fn.restype = [], ctypes.c_int
        threads = fn()
    if hasattr(lib, "scipy_openblas_get_config64_"):
        fn = lib.scipy_openblas_get_config64_
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        config = fn().decode()
    return threads, config


def environment() -> dict:
    import numpy
    import scipy

    threads, config = _openblas()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "openblas_threads": threads,
        "openblas_config": config,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement

def job_list(wl, seconds: float) -> list:
    """The first jobs of ``wl``'s order, whole rounds, sized to ``seconds``."""
    rounds = max(1, round(seconds * wl.JOBS_PER_SECOND / wl.ROUND))
    return list(islice(wl.jobs(), rounds * wl.ROUND))


class SetupProbes:
    """Time SETUP_REPS fresh processes from spawn until setup is done.

    The probes are spread evenly over the jobs of the measured pass, so they
    sample the same stretch of a shared machine as the solves do.  Taken in
    one block before the pass, their median moved far more from run to run.
    """

    def __init__(self, args, workdir: Path, n_jobs: int):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.workdir = workdir
        self.interval = n_jobs / SETUP_REPS
        self.times = []

    def probe(self):
        probe_dir = self.workdir / f"setup{len(self.times)}"
        probe_dir.mkdir()
        t0 = time.monotonic()
        proc = subprocess.run(self.cmd, cwd=probe_dir, capture_output=True,
                              text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.split()[-1]) - t0)

    def between_jobs(self, done: int):
        """Run the next probe once the pass has done its share of jobs."""
        if (len(self.times) < SETUP_REPS
                and done >= len(self.times) * self.interval):
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPS:
            self.probe()
        return self.times


class Pass:
    """One closed-loop pass: per-job wall times and checked outcomes."""

    def __init__(self):
        self.jobs, self.ms, self.outcomes = [], [], []
        self.wall = 0.0

    @property
    def attempted(self):
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)

    @property
    def violations(self):
        return [v for o in self.outcomes for v in o.violations]


def run_pass(wl, jobs, tracer=None, between=None) -> Pass:
    """Run every job of ``jobs`` in order.

    ``between(done)`` runs after each job with the number of jobs done; its
    time is left out of the pass.
    """
    from tracing import JOB_SPAN
    from workloads import Outcome

    p = Pass()
    start = time.perf_counter()
    paused = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.call(job)
            else:
                tracer.job = len(p.jobs)
                with tracer.span(JOB_SPAN):
                    raw = wl.call(job)
            p.ms.append((time.perf_counter() - t0) * 1e3)
            outcome = wl.check(job, raw)
        except Exception:  # a crash is a failed solve, and the run goes on
            if len(p.ms) == len(p.jobs):
                p.ms.append((time.perf_counter() - t0) * 1e3)
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(1, 1, [f"{wl.name} {job}: raised"])
        p.jobs.append(job)
        p.outcomes.append(outcome)
        if between is not None:
            t0 = time.perf_counter()
            between(len(p.jobs))
            paused += time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    p.wall = time.perf_counter() - start - paused
    return p


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(p: Pass, setup_times) -> dict:
    digits = {}
    for o in p.outcomes:
        for key, value in o.digits.items():
            digits.setdefault(key, value)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_ms_p50": (percentile(p.ms, 50), "ms"),
        "solve_ms_p90": (percentile(p.ms, 90), "ms"),
        "solves_per_s": ((p.attempted - p.failed) / p.wall, "1/s"),
        "pass_rate": (1.0 - p.failed / p.attempted, "ratio"),
        "lambda_digits_p50": (statistics.median(digits.values()), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload in BLAS_THREADS:
        os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS[args.workload]
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, Path.cwd()).setup()
        print(time.monotonic())
        return 0

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cls, workdir: Path) -> int:
    import tracing

    wl = cls(args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        with tracing.installed(tracer):
            wl.setup()
    wl.prepare()
    try:   # warm-up: lazy imports and first-call costs stay out of the pass
        wl.call(next(wl.jobs()))
    except Exception:   # the measured pass will record the failure
        traceback.print_exc(file=sys.stderr)

    if tracer is None:
        jobs = job_list(wl, args.seconds)
        probes = SetupProbes(args, workdir, len(jobs))
        main_pass = run_pass(wl, jobs, between=probes.between_jobs)
        setup_times = probes.finish()
        passes = [main_pass]
        metrics = end_to_end(main_pass, setup_times)
    else:
        setup_times = []
        plain = run_pass(wl, job_list(wl, args.seconds / 2.0))
        with tracing.installed(tracer) as missing:
            traced = run_pass(wl, plain.jobs, tracer=tracer)
        passes = [plain, traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced.jobs),
                                        traced.wall, plain.wall, missing)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    violations = [v for p in passes for v in p.violations]
    last = passes[-1]
    p90 = percentile(last.ms, 90)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "jobs": len(last.jobs),
        "samples_above_p90": sum(ms > p90 for ms in last.ms),
        "setup_probes_s": setup_times,
        "violations": violations[:20],
        "env": environment(),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
