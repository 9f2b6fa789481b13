"""The bordered direction minimizer against independent oracles.

A reduced problem (poles kappa, coefficients c, gamma, delta > 0) is the
quotient (sum_i kappa_i t_i^2 + 2 c_i t_i + gamma) / (T^T T + delta), which
``reduce`` takes as A = diag(kappa), B = I, a = c, b = 0.  Its minimum is
the root of the secular equation rho*delta = f(rho) left of the smallest
active pole, where g(rho) = rho*delta - f(rho) is strictly increasing;
bisection on a sign-changing bracket is therefore a trustworthy independent
oracle.  With a general B the oracles are the dense generalized eigenvalue
of the bordered pencil and sampled points.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_eig import secular
from greedy_eig.errors import DegenerateDenominator, PoleCollision
from greedy_eig.secular import recover_minimizer, reduce, solve_secular
from greedy_eig.tensor_core import DirectionData

# smallest root of rho = 1/rho + 1/(rho - 2), found by bisection to 1e-13
KNOWN_ROOT = -1.1700864866260337


class Problem(NamedTuple):
    kappa: np.ndarray
    c: np.ndarray
    gamma: float
    delta: float

    @property
    def active(self):
        """The coefficients not negligible against the largest."""
        return np.abs(self.c) > 1e-14 * np.sqrt(self.c @ self.c)


def solve(p):
    """(reduction, rho, y) of the problem through reduce(diag(kappa), I,
    c, 0, gamma, delta)."""
    n = len(p.kappa)
    red = reduce(np.diag(p.kappa), np.eye(n), p.c, np.zeros(n), p.gamma,
                 p.delta)
    return (red, *solve_secular(red))


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


def full_quotient(A, B, a, b, alpha, beta, S):
    """(S^T A S + 2 a^T S + alpha) / (S^T B S + 2 b^T S + beta)."""
    return ((S @ A @ S + 2.0 * a @ S + alpha)
            / (S @ B @ S + 2.0 * b @ S + beta))


def signed_powers(draw, n, lo, hi):
    """n values of magnitude 10**U(lo, hi), each of random sign."""
    return np.array([draw(st.sampled_from((-1.0, 1.0)))
                     * 10.0 ** draw(st.floats(lo, hi)) for _ in range(n)])


@st.composite
def stiff_problems(draw):
    """Poles spread over eight decades, coefficients over four."""
    n = draw(st.integers(1, 6))
    return Problem(np.sort(signed_powers(draw, n, -2.0, 6.0)),
                   signed_powers(draw, n, -3.0, 1.0),
                   draw(st.floats(-3.0, 3.0)),
                   10.0 ** draw(st.floats(-1.0, 0.0)))


@st.composite
def clustered_problems(draw):
    """Poles within 10**U(-6, 0) above the first, whose coefficient may be
    tiny."""
    n = draw(st.integers(2, 6))
    gaps = np.sort([10.0 ** draw(st.floats(-6.0, 0.0)) for _ in range(n - 1)])
    c = signed_powers(draw, n, -3.0, 1.0)
    c[0] = signed_powers(draw, 1, -12.0, 1.0)[0]
    return Problem(signed_powers(draw, 1, -2.0, 6.0)
                   + np.concatenate(([0.0], gaps)), c,
                   draw(st.floats(-3.0, 3.0)),
                   10.0 ** draw(st.floats(-1.0, 0.0)))


# a stiff problem whose root lies within an ulp of its far-off first pole,
# where a Newton iteration on the secular equation ended
POLE_ROUNDING = Problem(
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
    return Problem(kappa, c, gamma, delta)


class TestSolveSecular:
    def test_known_two_pole_problem(self):
        _, rho, _ = solve(Problem(np.array([0.0, 2.0]), np.array([1.0, 1.0]),
                                  0.0, 1.0))
        assert rho == pytest.approx(KNOWN_ROOT, abs=1e-11)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_problem(rng)
            _, rho, _ = solve(p)
            assert rho == pytest.approx(bisect_root(p), abs=1e-10)

    def test_tiny_first_coefficient_next_to_a_second_pole(self):
        """A first pole with a tiny coefficient still bounds the root."""
        p = Problem(np.array([1.0, 1.001]), np.array([1e-10, 1.0]), 2.0, 1.0)
        _, rho, _ = solve(p)
        assert rho == pytest.approx(bisect_root(p), abs=1e-12)
        assert rho == pytest.approx(0.3826895285872474, abs=1e-12)

    def test_small_root_against_large_poles(self):
        """The eigenvalue of H is accurate only to rounding of |H| ~ 1e6,
        1.3e-10 here; the Rayleigh quotient of its eigenvector is exact to
        rounding of the root."""
        p = Problem(np.array([1e6, 1e6 + 1.0]), np.array([-1.0, -10.0]),
                    0.0, 1.0)
        _, rho, _ = solve(p)
        assert rho == pytest.approx(bisect_root(p), rel=1e-14)

    def test_left_of_smallest_active_pole(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_problem(rng)
            _, rho, _ = solve(p)
            assert rho < np.min(p.kappa[p.active])

    def test_pole_free_case(self):
        """No active pole: the minimum gamma / delta is attained at T = 0."""
        red, rho, y = solve(Problem(np.array([2.0]), np.array([0.0]), 3.0,
                                    2.0))
        assert rho == pytest.approx(1.5)
        assert recover_minimizer(red, y) == pytest.approx([0.0], abs=1e-15)

    def test_root_value_is_global_minimum_on_grid(self):
        """The root equals the quotient minimum; grid values never beat it."""
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_problem(rng, n_max=3)
            red, rho, y = solve(p)
            n = len(p.kappa)
            for _ in range(40):
                t = rng.standard_normal(n) * rng.uniform(0.1, 10)
                assert quotient(p, t) >= rho - 1e-9 * max(1.0, abs(rho))
            assert quotient(p, recover_minimizer(red, y)) == pytest.approx(
                rho, abs=1e-10 * max(1.0, abs(rho)))


def spd(rng, n, cond):
    """A random SPD matrix with condition number cond."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.geomspace(1.0, cond, n)) @ Q.T


class TestReduce:
    def test_reduction_preserves_quotient(self):
        """y's Rayleigh quotient on the bordered matrix equals the original
        quotient at the direction vector y maps to."""
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
        H = red.bordered
        for _ in range(20):
            y = rng.standard_normal(n + 1)
            s = recover_minimizer(red, y)
            assert (y @ H @ y) / (y @ y) == pytest.approx(
                full_quotient(A, B, a_lin, b_lin, alpha, beta, s), rel=1e-9)

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
        rho, y = solve_secular(red)
        s = recover_minimizer(red, y)
        assert full_quotient(A, B, a_lin, b_lin, 0.7, 1.0, s) == pytest.approx(
            rho, rel=1e-8)
        # perturbations never go below the minimum
        for _ in range(30):
            sp = s + 0.1 * rng.standard_normal(n)
            assert (full_quotient(A, B, a_lin, b_lin, 0.7, 1.0, sp)
                    >= rho - 1e-10)

    @settings(database=None, derandomize=True, deadline=None,
              max_examples=200)
    @given(st.integers(1, 12), st.floats(0.0, 4.0), st.floats(-2.0, 0.0),
           st.integers(0, 2 ** 32 - 1))
    def test_direction_minimizer_matches_dense_minimization(
            self, n, log_cond, log_delta, seed):
        """Symmetric A, SPD B with condition number up to 1e4: the returned
        direction attains the smallest eigenvalue of the dense bordered
        pencil, and no sampled direction goes below it."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A = A + A.T
        B = spd(rng, n, 10.0 ** log_cond)
        a_lin, b_lin = rng.standard_normal(n), rng.standard_normal(n)
        alpha = rng.standard_normal()
        beta = float(b_lin @ np.linalg.solve(B, b_lin)) + 10.0 ** log_delta
        red = reduce(A, B, a_lin, b_lin, alpha, beta)
        rho, y = solve_secular(red)
        s = recover_minimizer(red, y)
        tol = max(1.0, abs(rho))
        assert abs(full_quotient(A, B, a_lin, b_lin, alpha, beta, s)
                   - rho) <= 1e-10 * tol
        pencil = [np.block([[M, v[:, None]], [v[None, :], np.array([[w]])]])
                  for M, v, w in ((A, a_lin, alpha), (B, b_lin, beta))]
        dense = scipy.linalg.eigh(*pencil, eigvals_only=True)[0]
        assert abs(dense - rho) <= 1e-9 * tol
        for scale in (1e-3, 1e-1, 1e1, 1e3):
            for _ in range(10):
                step = scale * (1.0 + np.abs(s).max())
                sp = s + step * rng.standard_normal(n)
                assert (full_quotient(A, B, a_lin, b_lin, alpha, beta, sp)
                        >= rho - 1e-9 * tol)

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
        red, _, _ = solve(Problem(np.array([0.0]), np.array([1.0]), 0.0, 1.0))
        with pytest.raises(PoleCollision):
            recover_minimizer(red, np.array([1.0, 0.0]))

    def test_unattained_infimum_raises_pole_collision(self):
        """An inactive pole below the secular root: the infimum -10 is
        approached only as t_1 grows without bound; the stationary value
        left of the active pole, -0.618, is no minimum."""
        p = Problem(np.array([-10.0, 1.0]), np.array([0.0, 1.0]), 0.0, 1.0)
        red, rho, y = solve(p)
        assert rho == -10.0 and y[-1] == 0.0
        assert quotient(p, [1e4, 0.0]) < bisect_root(p)
        with pytest.raises(PoleCollision):
            recover_minimizer(red, y)

    def test_root_next_to_a_far_pole_is_attained(self):
        """The root lies within an ulp of kappa_1 = -857981, but y[N] is
        about 3.6e-9: the minimizer, about 1.24e8 e_1, attains the root."""
        red, rho, y = solve(POLE_ROUNDING)
        s = recover_minimizer(red, y)
        assert s[0] == pytest.approx(1.24e8, rel=1e-2)
        assert quotient(POLE_ROUNDING, s) == pytest.approx(
            rho, abs=1e-10 * abs(rho))
        assert rho == pytest.approx(bisect_root(POLE_ROUNDING),
                                    abs=1e-14 * abs(rho))

    @settings(database=None, derandomize=True, deadline=None,
              max_examples=300)
    @given(st.one_of(stiff_problems(), clustered_problems()))
    def test_stiff_problems_give_the_root_or_a_pole_collision(self, p):
        red, rho, y = solve(p)
        try:
            s = recover_minimizer(red, y)
        except PoleCollision:
            assert abs(y[-1]) <= 1e-14 * np.linalg.norm(y)
            return
        tol = max(1.0, abs(rho))
        assert abs(quotient(p, s) - rho) <= 1e-10 * tol
        scale = 1.0 + np.max(np.abs(p.kappa))
        assert abs(rho - bisect_root(p)) <= 1e-13 * scale


def bordered(A, B, a, b, alpha, beta):
    """(minimizer, value) of the quotient by the bordered route, or None
    where its infimum is not attained."""
    red = reduce(A, B, a, b, alpha, beta)
    rho, y = solve_secular(red)
    try:
        return recover_minimizer(red, y), rho
    except PoleCollision:
        return None


def pencil(A, B, a, v):
    """The quotient with matrices A and B, a and b = B v, as the pencil
    coefficients of a direction: on the stack [A; I; B], w = (1, 0, 1)
    and v = (0, a, v)."""
    n = len(a)
    stack = np.concatenate([A, np.eye(n), B])
    return DirectionData(np.array([1.0, 0.0, 1.0]),
                         np.array([np.zeros(n), a, v]),
                         stack.reshape(3, -1), stack.T)


def newton_minimizer(A, B, a, b, alpha, beta, rho):
    """``secular.newton_minimizer`` on the quotient with matrices A and B,
    a and b, whose pencil has v = B^-1 b."""
    return secular.newton_minimizer(pencil(A, B, a, np.linalg.solve(B, b)),
                                    alpha, beta, rho)


def start_near(s, log_step, rng):
    """A random direction at 10**log_step of the scale of s from s."""
    return s + 10.0 ** log_step * (1.0 + np.abs(s).max()) * rng.standard_normal(
        len(s))


class TestNewtonMinimizer:
    """Newton's method on the secular function from a value that some S
    attains: it declines, or it gives the bordered route's infimum and
    minimizer."""

    @settings(database=None, derandomize=True, deadline=None,
              max_examples=300)
    @given(st.one_of(stiff_problems(), clustered_problems()),
           st.floats(-3.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_stiff_problems_decline_or_match_the_bordered_route(
            self, p, log_step, seed):
        """The start is a random S near the minimizer, or near 0 where the
        infimum is not attained; the route then declines."""
        n = len(p.kappa)
        A, B, b = np.diag(p.kappa), np.eye(n), np.zeros(n)
        found = bordered(A, B, p.c, b, p.gamma, p.delta)
        s0 = found[0] if found else np.zeros(n)
        start = start_near(s0, log_step, np.random.default_rng(seed))
        newton = newton_minimizer(A, B, p.c, b, p.gamma, p.delta,
                                  quotient(p, start))
        if newton is None:
            return
        assert found is not None
        (s, rho), (S, value) = found, newton
        scale = 1.0 + np.max(np.abs(p.kappa))
        # an attained value, within Newton's error after its last step
        assert rho - 1e-13 * scale <= value <= rho + 1e-9 * scale
        assert abs(quotient(p, S) - rho) <= 1e-13 * scale
        # the minimizer: stationary at the bordered route's infimum
        assert (np.linalg.norm((p.kappa - rho) * S + p.c)
                <= 1e-13 * scale * (1.0 + np.linalg.norm(S)))

    @settings(database=None, derandomize=True, deadline=None,
              max_examples=200)
    @given(st.integers(1, 12), st.floats(0.0, 3.0), st.floats(-2.0, 0.0),
           st.floats(-3.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_spd_mass_problems_decline_or_match_the_bordered_route(
            self, n, log_cond, log_delta, log_step, seed):
        """Symmetric A and SPD B of condition up to 1e3, from a random S
        near the minimizer."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A = A + A.T
        B = spd(rng, n, 10.0 ** log_cond)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        alpha = rng.standard_normal()
        beta = float(b @ np.linalg.solve(B, b)) + 10.0 ** log_delta
        found = bordered(A, B, a, b, alpha, beta)
        s0 = found[0] if found else np.zeros(n)
        start = start_near(s0, log_step, rng)
        newton = newton_minimizer(
            A, B, a, b, alpha, beta,
            full_quotient(A, B, a, b, alpha, beta, start))
        if newton is None:
            return
        assert found is not None
        (s, rho), (S, value) = found, newton
        # the bordered value itself is accurate to rounding of the whitened
        # matrix, about 1e-13 of it here
        assert abs(value - rho) <= 1e-11 * max(1.0, abs(rho))
        assert np.linalg.norm(S - s) <= 1e-10 * (1.0 + np.linalg.norm(s))

    def test_declines_at_or_above_the_pencils_smallest_eigenvalue(self):
        """There A - rho B is not positive definite: the infimum lies at or
        below rho only if it is not attained, and the route declines."""
        rng = np.random.default_rng(21)
        n = 6
        A = rng.standard_normal((n, n))
        A = A + A.T
        B = spd(rng, n, 1e3)
        a, b = rng.standard_normal(n), 0.1 * rng.standard_normal(n)
        lowest = scipy.linalg.eigh(A, B, eigvals_only=True)[0]
        for rho in (lowest, lowest + 1e-9 * abs(lowest), lowest + 1.0):
            assert newton_minimizer(A, B, a, b, 0.5, 1.0, rho) is None
        # the poles of a reduced problem: B = I
        p = Problem(np.array([-2.0, 1.0, 3.0]), np.array([0.5, 1.0, -1.0]),
                    0.3, 0.8)
        for rho in (-2.0, 0.0, 5.0):
            assert newton_minimizer(np.diag(p.kappa), np.eye(3), p.c,
                                    np.zeros(3), p.gamma, p.delta, rho) is None

    @pytest.mark.parametrize("rdelta", [0.0, 1e-15, 5e-15])
    def test_declines_on_a_degenerate_denominator(self, rdelta):
        """b = B s0 and a = A s0 make S(rho) = -s0 for every rho, where the
        denominator is delta = beta - s0^T B s0 <= 1e-14 beta.  The route
        declines; the bordered route raises DegenerateDenominator."""
        rng = np.random.default_rng(22)
        n = 5
        A = spd(rng, n, 1e2)
        B = spd(rng, n, 1e3)
        s0 = rng.standard_normal(n)
        s0 /= math.sqrt(s0 @ B @ s0)
        a, b = A @ s0, B @ s0
        alpha, beta = s0 @ A @ s0 - 1.0, 1.0 + rdelta
        # a value some S attains; it is negative, so A - rho B is SPD
        t = rng.standard_normal(n)
        t *= 0.5 / math.sqrt(t @ A @ t)
        rho = full_quotient(A, B, a, b, alpha, beta, t - s0)
        assert rho < 0
        assert secular.newton_minimizer(pencil(A, B, a, s0), alpha, beta,
                                        rho) is None
        with pytest.raises(DegenerateDenominator):
            reduce(A, B, a, b, alpha, beta)

    def test_declines_where_the_denominator_vanishes(self):
        """A = diag(2, 3), a = (2, 0), b = (1, 0), beta = 1, so delta = 0:
        S = (-1, 1) attains rho = -2, where S(rho) = (-1, 0) and the
        denominator is exactly 0.  The route declines instead of dividing
        by it."""
        A, B = np.diag([2.0, 3.0]), np.eye(2)
        a, b = np.array([2.0, 0.0]), np.array([1.0, 0.0])
        assert full_quotient(A, B, a, b, -3.0, 1.0, np.array([-1.0, 1.0])) == -2.0
        assert newton_minimizer(A, B, a, b, -3.0, 1.0, -2.0) is None
        with pytest.raises(DegenerateDenominator):
            reduce(A, B, a, b, -3.0, 1.0)
