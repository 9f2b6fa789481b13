"""Secular reduction and root finding against a bisection oracle.

The scalar equation rho*delta = f(rho) has its relevant root left of the
smallest active pole, where g(rho) = rho*delta - f(rho) is strictly
increasing; bisection on a sign-changing bracket is therefore a trustworthy
independent oracle.
"""

import numpy as np
import pytest

from greedy_eig.errors import DegenerateDenominator, PoleCollision
from greedy_eig.secular import (
    SecularProblem,
    recover_minimizer,
    reduce,
    solve_secular,
)

# smallest root of rho = 1/rho + 1/(rho - 2), found by bisection to 1e-13
KNOWN_ROOT = -1.1700864866260337


def bisect_root(p, lo, hi, tol=1e-13):
    def g(rho):
        return rho * p.delta - secular_f(p, rho)

    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def secular_f(p, rho):
    """f(rho) = sum_i c_i^2 / (rho - kappa_i) + gamma over active poles."""
    mask = p.active
    return float(np.sum(p.c[mask] ** 2 / (rho - p.kappa[mask])) + p.gamma)


def m_of_rho(p, rho):
    """L(T(rho)) with t_i(rho) = c_i / (rho - kappa_i) on active poles."""
    t = np.zeros_like(p.c)
    t[p.active] = p.c[p.active] / (rho - p.kappa[p.active])
    return p.quotient(t)


def random_problem(rng, n_max=6):
    n = rng.integers(1, n_max + 1)
    kappa = np.sort(rng.uniform(-5, 5, size=n))
    c = rng.standard_normal(n)
    gamma = rng.uniform(-3, 3)
    delta = rng.uniform(0.1, 2.0)
    return SecularProblem(kappa, c, gamma, delta)


class TestSolveSecular:
    def test_known_two_pole_problem(self):
        p = SecularProblem(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 0.0, 1.0)
        assert solve_secular(p) == pytest.approx(KNOWN_ROOT, abs=1e-11)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_problem(rng)
            rho = solve_secular(p)
            kap_active = p.kappa[p.active]
            hi = float(np.min(kap_active)) - 1e-9
            lo = min(rho - 10.0, hi - 10.0)
            while lo * p.delta - secular_f(p, lo) >= 0:
                lo -= 10.0
            ref = bisect_root(p, lo, hi)
            assert rho == pytest.approx(ref, abs=1e-10)

    def test_left_of_smallest_active_pole(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_problem(rng)
            rho = solve_secular(p)
            assert rho < np.min(p.kappa[p.active])

    def test_pole_free_case(self):
        p = SecularProblem(np.array([1.0]), np.array([0.0]), 3.0, 2.0)
        assert solve_secular(p) == pytest.approx(1.5)

    def test_root_value_is_global_minimum_on_grid(self):
        """The root equals the quotient minimum; grid values never beat it."""
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_problem(rng, n_max=3)
            rho = solve_secular(p)
            n = len(p.kappa)
            for _ in range(40):
                t = rng.standard_normal(n) * rng.uniform(0.1, 10)
                assert p.quotient(t) >= rho - 1e-9 * max(1.0, abs(rho))
            assert m_of_rho(p, rho) == pytest.approx(rho, abs=1e-7)


class TestReduce:
    def test_reduction_preserves_quotient(self):
        """L(T) at mapped points equals the original quadratic quotient."""
        rng = np.random.default_rng(10)
        n = 5
        g = rng.standard_normal((n, n))
        B = g @ g.T + n * np.eye(n)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        a_lin = rng.standard_normal(n)
        b_lin = 0.01 * rng.standard_normal(n)
        alpha, beta = 1.3, 0.8
        red = reduce(A, B, a_lin, b_lin, alpha, beta)
        p = red.problem
        for _ in range(20):
            t = rng.standard_normal(n)
            s = red.to_original(t)
            num = s @ A @ s + 2 * a_lin @ s + alpha
            den = s @ B @ s + 2 * b_lin @ s + beta
            assert p.quotient(t) == pytest.approx(num / den, rel=1e-9)

    def test_minimizer_attains_root_value(self):
        rng = np.random.default_rng(12)
        n = 4
        g = rng.standard_normal((n, n))
        B = g @ g.T + n * np.eye(n)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        a_lin = rng.standard_normal(n)
        b_lin = 0.05 * rng.standard_normal(n)
        red = reduce(A, B, a_lin, b_lin, 0.7, 1.0)
        rho = solve_secular(red.problem)
        s = recover_minimizer(red, rho)
        num = s @ A @ s + 2 * a_lin @ s + 0.7
        den = s @ B @ s + 2 * b_lin @ s + 1.0
        assert num / den == pytest.approx(rho, rel=1e-8)
        # perturbations never go below the minimum
        for _ in range(30):
            sp = s + 0.1 * rng.standard_normal(n)
            nump = sp @ A @ sp + 2 * a_lin @ sp + 0.7
            denp = sp @ B @ sp + 2 * b_lin @ sp + 1.0
            assert nump / denp >= rho - 1e-10

    def test_degenerate_denominator_raises(self):
        B = np.eye(2)
        b_lin = np.array([1.0, 0.0])  # g = b, delta = 1 - 1 = 0
        with pytest.raises(DegenerateDenominator):
            reduce(np.eye(2), B, np.zeros(2), b_lin, 1.0, 1.0)

    def test_negative_beta_raises(self):
        with pytest.raises(DegenerateDenominator):
            reduce(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2), 1.0, -1.0)


class TestRecoverMinimizer:
    def test_pole_collision_guard(self):
        p = SecularProblem(np.array([0.0]), np.array([1.0]), 0.0, 1.0)

        class FakeRed:
            problem = p

        with pytest.raises(PoleCollision):
            recover_minimizer(FakeRed(), 0.0)
