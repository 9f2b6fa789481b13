"""Secular reduction and root finding against a bisection oracle.

The scalar equation rho*delta = f(rho) has its relevant root left of the
smallest active pole, where g(rho) = rho*delta - f(rho) is strictly
increasing; bisection on a sign-changing bracket is therefore a trustworthy
independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_eig.errors import DegenerateDenominator, PoleCollision
from greedy_eig.secular import (
    SecularProblem,
    recover_minimizer,
    reduce,
    solve_secular,
)

# smallest root of rho = 1/rho + 1/(rho - 2), found by bisection to 1e-13
KNOWN_ROOT = -1.1700864866260337


def bisect_root(p):
    """The root of g(rho) = rho*delta - f(rho) left of the smallest active
    pole kappa_1, by bisection down to adjacent floats; g is never evaluated
    at kappa_1, where it is infinite."""
    def g(rho):
        return rho * p.delta - secular_f(p, rho)

    hi = float(np.min(p.kappa[p.active]))
    width = 1.0
    while g(hi - width) >= 0:
        width *= 2.0
    lo = hi - width
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def secular_f(p, rho):
    """f(rho) = sum_i c_i^2 / (rho - kappa_i) + gamma over active poles."""
    mask = p.active
    return float(np.sum(p.c[mask] ** 2 / (rho - p.kappa[mask])) + p.gamma)


def quotient(p, T):
    """L(T), the reduced quotient the problem minimizes."""
    T = np.asarray(T, dtype=float)
    num = float(p.kappa @ (T * T) + 2.0 * p.c @ T + p.gamma)
    return num / float(T @ T + p.delta)


def m_of_rho(p, rho):
    """L(T(rho)) with t_i(rho) = c_i / (rho - kappa_i) on active poles."""
    t = np.zeros_like(p.c)
    t[p.active] = p.c[p.active] / (rho - p.kappa[p.active])
    return quotient(p, t)


class Unreduced:
    """The identity reduction of a SecularProblem, for recover_minimizer."""

    def __init__(self, problem):
        self.problem = problem

    def to_original(self, T):
        return T


def signed_powers(draw, n, lo, hi):
    """n values of magnitude 10**U(lo, hi), each of random sign."""
    return np.array([draw(st.sampled_from((-1.0, 1.0)))
                     * 10.0 ** draw(st.floats(lo, hi)) for _ in range(n)])


@st.composite
def stiff_problems(draw):
    """Poles spread over eight decades, coefficients over four."""
    n = draw(st.integers(1, 6))
    return SecularProblem(np.sort(signed_powers(draw, n, -2.0, 6.0)),
                          signed_powers(draw, n, -3.0, 1.0),
                          draw(st.floats(-3.0, 3.0)),
                          10.0 ** draw(st.floats(-1.0, 0.0)))


@st.composite
def clustered_problems(draw):
    """Poles within 10**U(-6, 0) above the first, whose coefficient may be
    tiny: from far left a linearized cluster hides the root behind the
    first pole."""
    n = draw(st.integers(2, 6))
    gaps = np.sort([10.0 ** draw(st.floats(-6.0, 0.0)) for _ in range(n - 1)])
    c = signed_powers(draw, n, -3.0, 1.0)
    c[0] = signed_powers(draw, 1, -12.0, 1.0)[0]
    return SecularProblem(signed_powers(draw, 1, -2.0, 6.0)
                          + np.concatenate(([0.0], gaps)), c,
                          draw(st.floats(-3.0, 3.0)),
                          10.0 ** draw(st.floats(-1.0, 0.0)))


# a stiff problem whose root lies within rounding of its far-off first pole
POLE_ROUNDING = SecularProblem(
    np.array([-857981.1504847535, -3.799146672080414, -0.17317789374414508]),
    np.array([-0.001363395270700266, -2.9960057343920323,
              -0.8670654305834228]),
    -1.8188213114368408, 0.19755464569100556)


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
            assert rho == pytest.approx(bisect_root(p), abs=1e-10)

    def test_start_on_either_side_of_the_root(self):
        """A start left of the root costs a step, not the answer."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_problem(rng)
            ref = bisect_root(p)
            k1 = float(np.min(p.kappa[p.active]))
            for start in (ref - 10.0 * rng.uniform(), ref,
                          ref + (k1 - ref) * rng.uniform()):
                rho = solve_secular(p, start=start)
                assert rho == pytest.approx(ref, abs=1e-10)

    def test_far_left_start_next_to_a_second_pole(self):
        """From far left the tangent of the second pole's term is too flat:
        the step rounds onto kappa_1 although the root is far from it."""
        p = SecularProblem(np.array([1.0, 1.001]), np.array([1e-10, 1.0]),
                           2.0, 1.0)
        rho = solve_secular(p, start=-10.0)
        assert rho == pytest.approx(bisect_root(p), abs=1e-12)
        assert rho == pytest.approx(0.3826895285872474, abs=1e-12)

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
                assert quotient(p, t) >= rho - 1e-9 * max(1.0, abs(rho))
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
            assert quotient(p, t) == pytest.approx(num / den, rel=1e-9)

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
        with pytest.raises(PoleCollision):
            recover_minimizer(Unreduced(p), 0.0)

    def test_step_onto_the_pole_fails_cleanly(self):
        """The root lies within rounding of kappa_1: recovering a minimizer
        raises PoleCollision, a GreedyEigError, rather than dividing by
        zero."""
        rho = solve_secular(POLE_ROUNDING)
        with pytest.raises(PoleCollision):
            recover_minimizer(Unreduced(POLE_ROUNDING), rho)

    @settings(database=None, derandomize=True, deadline=None,
              max_examples=300)   # 5 of the 300 end on the pole
    @given(st.one_of(stiff_problems(), clustered_problems()),
           st.sampled_from(("cold", "left", "right")),
           st.floats(0.0, 6.0), st.floats(0.0, 1.0))
    def test_stiff_problems_give_the_root_or_a_pole_collision(
            self, p, side, far, frac):
        ref = bisect_root(p)
        k1 = float(np.min(p.kappa[p.active]))
        start = {"cold": None, "left": ref - 10.0 ** far,
                 "right": ref + (k1 - ref) * frac}[side]
        rho = solve_secular(p, start=start)
        try:
            recover_minimizer(Unreduced(p), rho)
        except PoleCollision:
            # only a root within rounding of the pole may end there
            scale = 1.0 + np.max(np.abs(p.kappa))
            assert abs(ref - k1) <= 1e-14 * scale
            return
        assert rho < k1
        assert abs(rho - ref) <= 1e-10 * max(1.0, abs(rho))
