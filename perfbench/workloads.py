"""The benchmark's workloads.

Each workload is built from the workload seed alone and exposes:

* ``setup()``   - import-side work a user pays before the first solve
                  (building or loading the operators); timed as ``setup_s``;
* ``prepare()`` - the benchmark's own reference solves, never timed;
* ``jobs()``    - an endless iterator of jobs in a fixed order;
* ``call(job)`` - the timed call into the program;
* ``check(job, raw)`` - the correctness checks on what ``call`` returned;
* ``ROUND``, ``JOBS_PER_SECOND`` - a pass runs whole rounds of ``ROUND``
                  jobs, as many as this nominal rate fits into the run's
                  seconds (see run.job_list).

A job is one ``greedy.run`` call (corpus2d, tensor4d) or one CLI command
(cli_oracle).  ``check`` returns an :class:`Outcome`.  A solve that raises,
ends in ``step_failure`` or misses its accuracy target counts as failed.  A
broken invariant (non-monotone eigenvalues, a value below the true minimum,
a wrong trace header, irreproducible traces) also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from greedy_eig import cli, greedy, problems, reference_oracle
from greedy_eig.greedy import GreedyConfig, Variant
from greedy_eig.tensor_core import KroneckerSumOperator, MetricSet

from reference import matrix_free_mu1

DIGITS_CAP = 12.0   # the round-off floor of a relative eigenvalue error
MONOTONE_TOL = 1e-10

# Pure and orthogonal flavours of the Rayleigh and residual rules.
RULES = ((Variant.RAYLEIGH, False), (Variant.RESIDUAL, False),
         (Variant.RAYLEIGH, True), (Variant.RESIDUAL, True))


def lambda_digits(err: float, mu1: float) -> float:
    """-log10 of the relative eigenvalue error, capped at DIGITS_CAP."""
    rel = abs(err) / max(1.0, abs(mu1))
    if rel <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    violations: list = field(default_factory=list)
    digits: dict = field(default_factory=dict)   # distinct solve -> digits


def _monotone(lams) -> bool:
    return all(b <= a + MONOTONE_TOL for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------

class Corpus2d:
    """The 20 frozen acceptance instances x the 4 rules (tests' settings).

    Instance seeds stay frozen because their spectral gaps are what the
    1e-8 accuracy check assumes; the workload seed sets the solver seeds,
    one per solve, so a run averages over many draws.  Jobs run in rounds:
    each round visits every instance once, sizes interleaved, with the rules
    rotated; four rounds make up the 80 solves, the length of a 30 s pass.
    """

    name = "corpus2d"
    ROUND, JOBS_PER_SECOND = 20, 2.7
    # tests/test_acceptance.py::INSTANCES, copied so the benchmark does not
    # move when the tests do; perfbench/tests checks that they still agree.
    INSTANCES = (
        ((8, 8), 2), ((9, 9), 1000), ((10, 10), 2000), ((11, 11), 3006),
        ((12, 12), 4015), ((13, 13), 5003), ((14, 14), 6002), ((15, 15), 7002),
        ((16, 16), 8013), ((18, 18), 9034), ((20, 20), 100105),
        ((22, 11), 101052), ((24, 12), 102020), ((26, 13), 103001),
        ((28, 14), 14026), ((30, 10), 104019), ((34, 11), 105061),
        ((38, 10), 106016), ((44, 12), 18030), ((51, 10), 107043),
    )
    TOL_LAMBDA_ERR = 1e-8   # test_02's tolerance

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self):
        self.problems = [problems.gen_random_kronecker(2, sizes, 2, seed=s)
                         for sizes, s in self.INSTANCES]

    def prepare(self):
        self.mu1 = [reference_oracle.dense_reference(op, m).mu1
                    for op, m in self.problems]

    def jobs(self):
        n = len(self.INSTANCES)
        for rnd in count():
            for k in range(n):
                inst, rule = (7 * k) % n, (k + rnd) % len(RULES)
                yield inst, rule, 1000 * self.seed + n * rule + inst

    def call(self, job):
        inst, rule, solver_seed = job
        variant, ortho = RULES[rule]
        cfg = GreedyConfig(variant=variant, orthogonal=ortho, max_iter=100,
                           tol_residual=1e-10, tol_lambda=1e-13,
                           rng_seed=solver_seed)
        op, m = self.problems[inst]
        return greedy.run(op, m, cfg)

    def check(self, job, res) -> Outcome:
        inst, rule, _ = job
        mu1 = self.mu1[inst]
        out = Outcome(1)
        err = abs(res.lam - mu1)
        out.digits[job] = lambda_digits(err, mu1)
        lams = [row.lambda_n for row in res.trace]
        if not _monotone(lams):
            out.violations.append(f"{self.name} {job}: lambda not monotone")
        if RULES[rule][1] and any(row.lambda_n > row.lambda_pure + MONOTONE_TOL
                                  for row in res.trace[1:]):
            out.violations.append(f"{self.name} {job}: orthogonal above pure")
        if (out.violations or res.reason.startswith("step_failure")
                or err > self.TOL_LAMBDA_ERR):
            out.failed = 1
        return out


# ---------------------------------------------------------------------------

class Tensor4d:
    """d = 4, N = 14 Kronecker sums (38,416 dims, K = 6), beyond the dense
    oracle: four one-body terms (a 1-D three-point Laplacian plus a seeded
    diagonal potential) and two seeded diagonal coupling products.  Each rule
    runs a fixed number of iterations; the tolerances cannot stop it early.

    The accuracy reached in that budget depends on the operator and on the
    solver seed.  A run cycles over three operators with frozen seeds and
    gives every group of four rule runs its own solver seed, derived from
    the workload seed, so the median over many distinct solves varies
    little from run to run.  A round gives each operator one group.
    """

    name = "tensor4d"
    ROUND, JOBS_PER_SECOND = 12, 4.6
    D, N, COUPLINGS, MAX_ITER, OPERATOR_SEEDS = 4, 14, 2, 30, (0, 1, 2)

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def _operator(self, rng):
        d, n = self.D, self.N
        lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        terms = []
        for j in range(d):
            term = [np.eye(n) for _ in range(d)]
            term[j] = lap + np.diag(rng.uniform(0.0, 1.0, n))
            terms.append(term)
        for _ in range(self.COUPLINGS):
            terms.append([np.diag(rng.uniform(0.0, 1.0, n)) for _ in range(d)])
        op = KroneckerSumOperator(terms)
        return op, MetricSet.identity(op.sizes)

    def setup(self):
        self.problems = [self._operator(np.random.default_rng(s))
                         for s in self.OPERATOR_SEEDS]

    def prepare(self):
        self.mu1 = [matrix_free_mu1(op, m) for op, m in self.problems]

    def jobs(self):
        for k in count():
            for rule in range(len(RULES)):
                yield k % len(self.OPERATOR_SEEDS), rule, 1000 * self.seed + k

    def call(self, job):
        inst, rule, solver_seed = job
        variant, ortho = RULES[rule]
        cfg = GreedyConfig(variant=variant, orthogonal=ortho,
                           max_iter=self.MAX_ITER, tol_residual=1e-300,
                           tol_lambda=1e-300, rng_seed=solver_seed)
        op, m = self.problems[inst]
        return greedy.run(op, m, cfg)

    def check(self, job, res) -> Outcome:
        out = Outcome(1)
        mu1 = self.mu1[job[0]]
        out.digits[job] = lambda_digits(res.lam - mu1, mu1)
        lams = [row.lambda_n for row in res.trace]
        if not _monotone(lams):
            out.violations.append(f"{self.name} {job}: lambda not monotone")
        if min(lams) < mu1 - 1e-10 * (1.0 + abs(mu1)):
            out.violations.append(
                f"{self.name} {job}: lambda {min(lams)!r} below mu1 {mu1!r}")
        if out.violations or res.reason.startswith("step_failure"):
            out.failed = 1
        return out


# ---------------------------------------------------------------------------

class CliOracle:
    """``greedy-eig gen/solve/compare`` in-process with the dense oracle on.

    Set-up runs ``gen`` for a 30 x 24 RandomKronecker (720 dims).  Each
    cycle then runs ``solve`` (Rayleigh), ``compare`` (Rayleigh, residual,
    explicit, orthogonal-Rayleigh) and ``solve`` again, all with the cycle's
    solver seed, so two of three commands are solves and the median stays
    inside one mode.  A rule run counts as one solve; one that ends in a
    step failure counts as failed.

    The operator seed is frozen and the workload seed sets the solver seeds:
    accuracy after a few iterations, and how often the explicit rule fails,
    depend far more on the operator than on the solver seed.  On this
    operator the explicit rule fails for most solver seeds (ROADMAP fix 1).
    """

    name = "cli_oracle"
    ROUND, JOBS_PER_SECOND = 3, 2.2   # a round is one cycle
    SIZES, K, OPERATOR_SEED, MAX_ITER = (30, 24), 2, 1, 5
    COMPARE_LABELS = ("explicit", "orthogonal-rayleigh", "rayleigh", "residual")
    WALL_COL = cli.TRACE_COLUMNS.index("wall_time_ms")
    ERR_COL = cli.TRACE_COLUMNS.index("err_lambda")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        self.solve_rows = {}
        self.mu1 = {}

    def _write(self, name, obj) -> str:
        path = str(self.dir / name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def setup(self):
        geig = str(self.dir / "operator.geig")
        gen_cfg = self._write("problem.json", {
            "kind": "RandomKronecker", "d": 2, "sizes": list(self.SIZES),
            "K": self.K, "seed": self.OPERATOR_SEED})
        solver = {"variant": "rayleigh", "max_iter": self.MAX_ITER,
                  "tol_residual": 1e-10, "tol_lambda": 1e-13}
        problem = {"kind": "FromFile", "path": geig}
        self.solve_cfg = self._write("solve.json", {
            "problem": problem, "solver": solver, "oracle": True})
        variants = [dict(solver, variant=v)
                    for v in ("rayleigh", "residual", "explicit")]
        variants.append(dict(solver, orthogonal=True))
        self.compare_cfg = self._write("compare.json", {
            "problem": problem, "variants": variants, "oracle": True})
        self._cli(["gen", "--config", gen_cfg, "--out", geig])

    def prepare(self):
        pass   # the CLI computes its own dense reference; checks use it

    def jobs(self):
        for cycle in count():
            for slot, kind in enumerate(("solve", "compare", "solve")):
                yield cycle, slot, kind

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def call(self, job):
        cycle, slot, kind = job
        cfg = self.solve_cfg if kind == "solve" else self.compare_cfg
        out = str(self.dir / f"{kind}{slot}.csv")
        return self._cli([kind, "--config", cfg, "--out", out,
                          "--seed", str(1000 * self.seed + cycle)]), out

    @staticmethod
    def _read(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return tuple(rows[0]), rows[1:]

    def _strip_wall(self, fields):
        return fields[:self.WALL_COL] + fields[self.WALL_COL + 1:]

    def check(self, job, raw) -> Outcome:
        cycle, slot, kind = job
        rc, path = raw
        tag = f"{self.name} cycle {cycle} {kind}{slot}"
        out = Outcome(1 if kind == "solve" else len(self.COMPARE_LABELS))
        if rc not in (cli.EXIT_OK, cli.EXIT_ITER_CAP):
            out.violations.append(f"{tag}: exit code {rc}")
            out.failed = out.attempted
            return out
        header, rows = self._read(path)
        if kind == "solve":
            self._check_solve(tag, cycle, slot, header, rows, path, out)
        else:
            self._check_compare(tag, cycle, header, rows, out)
        if out.violations:
            out.failed = out.attempted
        return out

    def _check_solve(self, tag, cycle, slot, header, rows, path, out):
        if header != cli.TRACE_COLUMNS:
            out.violations.append(f"{tag}: header {header}")
            return
        with open(path + ".json") as fh:
            summary = json.load(fh)
        if summary["err_lambda"] != abs(summary["lambda"] - summary["mu1"]):
            out.violations.append(f"{tag}: summary err_lambda inconsistent")
        if summary["reason"].startswith("step_failure"):
            out.failed = 1
        # both solves repeat compare's Rayleigh run: one distinct solve
        out.digits[(cycle, "rayleigh")] = lambda_digits(summary["err_lambda"],
                                                        summary["mu1"])
        trace = [self._strip_wall(r) for r in rows]
        if slot == 0:
            self.solve_rows[cycle] = trace
            self.mu1[cycle] = summary["mu1"]
        elif cycle in self.solve_rows and trace != self.solve_rows[cycle]:
            out.violations.append(f"{tag}: trace differs from the first solve")

    def _check_compare(self, tag, cycle, header, rows, out):
        if header != ("variant", *cli.TRACE_COLUMNS, "reason"):
            out.violations.append(f"{tag}: header {header}")
            return
        by_label = {}
        for r in rows:
            by_label.setdefault(r[0], []).append(r)
        if tuple(sorted(by_label)) != self.COMPARE_LABELS:
            out.violations.append(f"{tag}: variants {sorted(by_label)}")
            return
        for label, lrows in by_label.items():
            reason = lrows[-1][-1]
            if reason.startswith(("failed", "step_failure")):
                out.failed += 1
            if cycle in self.mu1 and lrows[-1][1 + self.ERR_COL]:
                out.digits[(cycle, label)] = lambda_digits(
                    float(lrows[-1][1 + self.ERR_COL]), self.mu1[cycle])
        rayleigh = [self._strip_wall(r[1:-1]) for r in by_label["rayleigh"]]
        if cycle in self.solve_rows and rayleigh != self.solve_rows[cycle]:
            out.violations.append(f"{tag}: rayleigh rows differ from solve")


WORKLOADS = {w.name: w for w in (Corpus2d, Tensor4d, CliOracle)}
