"""Reduction of the per-direction Rayleigh minimization to a secular equation.

The direction update minimizes a quotient of two inhomogeneous quadratics

    (S^T A S + 2 a^T S + alpha) / (S^T B S + 2 b^T S + beta),      B SPD.

A Cholesky congruence plus a diagonalization turns this into

    L(T) = (sum_i kappa_i t_i^2 + 2 c_i t_i + gamma) / (T^T T + delta),

whose minimum value rho is the smallest root of the scalar secular equation

    rho * delta = f(rho),    f(rho) = sum_i c_i^2 / (rho - kappa_i) + gamma,

located left of the smallest active pole.  The minimizer follows from
t_i = c_i / (rho - kappa_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_kernels import cholesky_spd, sym_eig_full, tri_solve
from .errors import DegenerateDenominator, PoleCollision

ACTIVE_RTOL = 1e-14
DEFAULT_TOL = 1e-12
_MAX_ROOT_ITER = 300


@dataclass(frozen=True)
class SecularProblem:
    kappa: np.ndarray  # ascending poles
    c: np.ndarray      # linear coefficients in the pole eigenbasis
    gamma: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", np.asarray(self.kappa, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.delta <= 0:
            raise DegenerateDenominator(f"delta must be positive, got {self.delta}")
        if (self.kappa[1:] < self.kappa[:-1]).any():
            raise ValueError("kappa must be sorted ascending")
        object.__setattr__(self, "_active", np.abs(self.c) > ACTIVE_RTOL
                           * math.sqrt(self.c @ self.c))

    def active_mask(self) -> np.ndarray:
        return self._active.copy()

    def f(self, rho: float) -> float:
        mask = self.active_mask()
        return float(
            np.sum(self.c[mask] ** 2 / (rho - self.kappa[mask])) + self.gamma
        )

    def quotient(self, T) -> float:
        """L(T), the reduced quotient this problem minimizes."""
        T = np.asarray(T, dtype=float)
        num = float(self.kappa @ (T * T) + 2.0 * self.c @ T + self.gamma)
        return num / float(T @ T + self.delta)

    def m_of_rho(self, rho: float) -> float:
        """L(T(rho)) with t_i(rho) = c_i / (rho - kappa_i) on active poles."""
        mask = self.active_mask()
        t = np.zeros_like(self.c)
        t[mask] = self.c[mask] / (rho - self.kappa[mask])
        return self.quotient(t)


@dataclass(frozen=True)
class SecularReduction:
    problem: SecularProblem
    chol_L: np.ndarray      # Cholesky factor of the denominator quadratic
    shift_g: np.ndarray     # L^-1 b
    eigvecs: np.ndarray     # eigenbasis of the transformed numerator quadratic

    def to_original(self, T) -> np.ndarray:
        """Map reduced coordinates T back to the direction vector S."""
        y = self.eigvecs @ np.asarray(T, dtype=float) - self.shift_g
        return tri_solve(self.chol_L, y, transposed=True)


def reduce(A_eff, B_eff, a_lin, b_lin, alpha, beta: float = 1.0) -> SecularReduction:
    """Reduce the quadratic quotient to a SecularProblem.

    ``beta`` is the constant term of the denominator (1 for a normalized
    context).  With B_eff = L L^T and S = L^-T (V T - g), g = L^-1 b_lin, the
    denominator becomes T^T T + delta with delta = beta - g^T g, and the
    numerator the diagonal quadratic of the problem.
    """
    if beta <= 0:
        raise DegenerateDenominator(f"denominator constant beta={beta} not positive")
    L = cholesky_spd(B_eff)
    n = L.shape[0]
    # L^-1 [A_eff, a_lin, b_lin] in one triangular solve
    rhs = np.empty((n, n + 2), order="F")
    rhs[:, :n] = A_eff
    rhs[:, n] = a_lin
    rhs[:, n + 1] = b_lin
    X = tri_solve(L, rhs)
    atil, g = X[:, n], X[:, n + 1]
    delta = beta - float(g @ g)
    if delta <= 1e-14 * beta:
        raise DegenerateDenominator(
            f"reduced denominator constant {delta / beta:.3e} <= 1e-14"
        )

    # L^-1 (L^-1 A_eff)^T = L^-1 A_eff L^-T, symmetric up to round-off;
    # sym_eig_full reads one triangle
    Atil = tri_solve(L, X[:, :n].T)
    dec = sym_eig_full(Atil)
    Ag = Atil @ g
    c = dec.vectors.T @ (atil - Ag)
    gamma = float(g @ Ag) - 2.0 * float(atil @ g) + alpha
    problem = SecularProblem(dec.values, c, gamma, delta)
    return SecularReduction(problem, L, g, dec.vectors)


def solve_secular(p: SecularProblem, tol: float = DEFAULT_TOL,
                  start: float | None = None) -> float:
    """Smallest root of rho*delta = f(rho), left of the smallest active pole.

    Safeguarded Newton on a one-pole rational model ("middle way"): the term
    of the smallest active pole, c_1^2 / (kappa_1 - rho), is kept exact and
    the other terms are linearized at the iterate, so each step solves a
    quadratic.  g(rho) = rho*delta - f(rho) is increasing and convex left of
    the pole, so the model lies below g and, from the right, the steps
    decrease monotonically onto the root; a root close to the pole costs no
    more steps than a distant one.  The iterate is kept inside a
    sign-changing bracket and any step leaving it is replaced by bisection.
    ``start``, when it lies left of the pole, is the first iterate; a value
    the quotient attains, such as the previous direction's, lies at or right
    of the root.  Otherwise the iteration starts next to the pole.
    """
    mask = p._active
    if mask.all():
        kap, cs2 = p.kappa, p.c ** 2
    elif mask.any():
        kap, cs2 = p.kappa[mask], p.c[mask] ** 2
    else:
        return p.gamma / p.delta
    k_min, c1sq = float(kap[0]), float(cs2[0])
    kap_rest, cs2_rest = kap[1:], cs2[1:]
    delta, gamma = p.delta, p.gamma

    def left_end():
        # g -> -inf as rho -> -inf and g is strictly increasing on
        # (-inf, k_min), so stepping left finds a point with g < 0
        lo = min(gamma / delta, k_min - 1.0)
        step = max(1.0, abs(k_min - lo))
        while lo * delta - float((cs2 / (lo - kap)).sum()) - gamma >= 0.0:
            lo -= step
            step *= 2.0
            if step > 1e200:
                raise PoleCollision("failed to bracket the secular root")
        return lo

    lo, hi = -math.inf, k_min
    if start is not None and start < k_min:
        x = float(start)
    else:
        x = k_min - 1e-12 * (1.0 + max(abs(float(p.kappa[0])),
                                       abs(float(p.kappa[-1]))))
    for _ in range(_MAX_ROOT_ITER):
        gaps = kap_rest - x
        terms = cs2_rest / gaps
        phi = float(terms.sum())
        gx = x * delta + c1sq / (k_min - x) + phi - gamma
        if abs(gx) <= tol * max(1.0, abs(x) * delta):
            return x
        if gx > 0.0:
            hi = x
        else:
            lo = x
        # delta*rho + c1sq/(k_min - rho) + phi + dphi*(rho - x) = gamma,
        # as a v^2 - b v - c1sq = 0 in v = k_min - rho > 0
        dphi = float((terms / gaps).sum())
        a = delta + dphi
        b = a * k_min + phi - dphi * x - gamma
        disc = math.sqrt(b * b + 4.0 * a * c1sq)
        v = (b + disc) / (2.0 * a) if b >= 0.0 else 2.0 * c1sq / (disc - b)
        x_new = k_min - v
        if x_new == x:
            return x   # the model's root is x to working precision
        if not (lo < x_new < hi):
            if lo == -math.inf:
                lo = left_end()
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x


def recover_minimizer(r: SecularReduction, rho_m: float) -> np.ndarray:
    """Direction vector S attaining the quotient value rho_m."""
    p = r.problem
    mask = p._active
    gaps = rho_m - p.kappa
    scale = 1.0 + max(abs(float(p.kappa[0])), abs(float(p.kappa[-1])))
    if (mask & (np.abs(gaps) < 1e-14 * scale)).any():
        raise PoleCollision("secular root coincides with an active pole")
    # t_i = c_i / (rho_m - kappa_i) on active poles, 0 elsewhere
    return r.to_original(np.divide(p.c, gaps, out=np.zeros(len(gaps)),
                                   where=mask))
