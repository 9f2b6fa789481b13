"""Inner alternating-direction solvers against brute-force direction oracles."""

import numpy as np
import pytest

from greedy_eig.adm import (
    AdmConfig,
    adm_explicit_step,
    adm_initial_guess,
    adm_rayleigh_step,
    adm_residual_step,
)
from greedy_eig.errors import ExplicitStepFailure
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    RankOne,
    TensorSum,
    a_inner,
    h_inner,
    rayleigh,
    shifted_inner,
)

RNG = np.random.default_rng(21)


def random_sym(n, rng=RNG):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_spd(n, rng=RNG):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def small_problem(seed=0, sizes=(4, 4), K=2):
    rng = np.random.default_rng(seed)
    op = KroneckerSumOperator(
        [[random_spd(n, rng) for n in sizes] for _ in range(K)]
    )
    return op, MetricSet.identity(sizes)


class TestInitialGuess:
    def test_attains_brute_force_rank_one_minimum(self):
        """Exhaustive alternating solve from many starts agrees with ADM."""
        op, m = small_problem(seed=3)
        out = adm_initial_guess(op, m, AdmConfig(rng_seed=0))
        val = out.objective
        # multi-start brute force over normalized rank-one grid
        rng = np.random.default_rng(99)
        best = min(
            rayleigh(op, m, TensorSum.from_rank_one(
                RankOne([rng.standard_normal(n) for n in op.sizes])))
            for _ in range(5000)
        )
        assert val <= best + 1e-9

    def test_unit_norm(self):
        op, m = small_problem(seed=4)
        out = adm_initial_guess(op, m, AdmConfig())
        u = TensorSum.from_rank_one(out.z)
        assert h_inner(u, u, m) == pytest.approx(1.0)

    def test_objective_matches_iterate(self):
        op, m = small_problem(seed=5)
        out = adm_initial_guess(op, m, AdmConfig())
        u = TensorSum.from_rank_one(out.z)
        assert rayleigh(op, m, u) == pytest.approx(out.objective, rel=1e-8)


class TestRayleighStep:
    def test_decreases_quotient_and_beats_random_directions(self):
        op, m = small_problem(seed=6)
        u = TensorSum.from_rank_one(
            adm_initial_guess(op, m, AdmConfig()).z
        )
        out = adm_rayleigh_step(op, m, u, AdmConfig(rng_seed=1))
        val = rayleigh(op, m, u.plus_rank_one(out.z))
        assert val <= rayleigh(op, m, u) + 1e-12
        assert val == pytest.approx(out.objective, rel=1e-8)
        rng = np.random.default_rng(17)
        for _ in range(2000):
            z = RankOne([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert rayleigh(op, m, u.plus_rank_one(z)) >= val - 1e-9

    def test_fixed_point_satisfies_euler_identity(self):
        """At the step's stationary point, a(u_new, z) = J(u_new) <u_new, z>."""
        op, m = small_problem(seed=7)
        u = TensorSum.from_rank_one(adm_initial_guess(op, m, AdmConfig()).z)
        out = adm_rayleigh_step(op, m, u, AdmConfig(rng_seed=1))
        z = TensorSum.from_rank_one(out.z)
        u_new = u.plus(z)
        lam = rayleigh(op, m, u_new)
        lhs = a_inner(op, u_new, z)
        rhs = lam * h_inner(u_new, z, m)
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1, abs(lhs)))


class TestResidualStep:
    def test_beats_random_rank_one_candidates(self):
        op, m = small_problem(seed=8)
        u = TensorSum.from_rank_one(adm_initial_guess(op, m, AdmConfig()).z)
        lam = rayleigh(op, m, u)
        out = adm_residual_step(op, m, u, lam, AdmConfig(rng_seed=1))

        def objective(z):
            up = u.plus_rank_one(z)
            zz = TensorSum.from_rank_one(z)
            return 0.5 * shifted_inner(op, m, up, up) - lam * h_inner(u, zz, m)

        val = objective(out.z)
        assert val == pytest.approx(out.objective, rel=1e-8)
        rng = np.random.default_rng(18)
        for _ in range(2000):
            z = RankOne([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert objective(z) >= val - 1e-9

    def test_riesz_reformulation(self):
        """The step minimizes the shifted-norm distance to the residual image.

        The minimized quadratic differs from 0.5*||R - z||_a^2 only by a
        constant, where R solves <R, v>_a = lam <u, v> - a(u, v) for all v;
        the two objectives must rank candidates identically.
        """
        op, m = small_problem(seed=9, sizes=(3, 3), K=2)
        u = TensorSum.from_rank_one(adm_initial_guess(op, m, AdmConfig()).z)
        lam = rayleigh(op, m, u)
        # dense Riesz representant
        a_full = np.zeros((9, 9))
        for term in op.terms:
            a_full += np.kron(term[0], term[1])
        u_vec = u.to_dense()
        r_vec = np.linalg.solve(a_full, lam * u_vec - a_full @ u_vec)

        out = adm_residual_step(op, m, u, lam, AdmConfig(rng_seed=1))
        z_vec = TensorSum.from_rank_one(out.z).to_dense()

        def dist2(zv):
            d = r_vec - zv
            return 0.5 * d @ a_full @ d

        base = dist2(z_vec)
        rng = np.random.default_rng(19)
        for _ in range(500):
            z = RankOne([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert dist2(TensorSum.from_rank_one(z).to_dense()) >= base - 1e-9


class TestExplicitStep:
    def test_fixed_point_satisfies_correction_equation(self):
        """The converged correction solves the contracted linear systems.

        The context must not be the rank-one Rayleigh minimizer itself: there
        the shifted direction systems are exactly singular (the correction
        equation has no solution at that point).  A slightly perturbed
        minimizer is the regime the outer iteration actually visits; far from
        any eigenvector the fixed-point sweep need not converge at all.
        """
        op, m = small_problem(seed=10)
        rng = np.random.default_rng(33)
        from greedy_eig.tensor_core import normalize

        base = adm_initial_guess(op, m, AdmConfig()).z
        u = TensorSum.from_rank_one(base).plus_rank_one(
            RankOne([0.05 * rng.standard_normal(n) for n in op.sizes]))
        u = normalize(u, m)
        lam = rayleigh(op, m, u)
        out = adm_explicit_step(op, m, u, lam, AdmConfig(rng_seed=1))
        assert out.converged
        z = TensorSum.from_rank_one(out.z)
        u_plus = u.plus(z)
        # stationarity tested against the correction itself
        lhs = a_inner(op, u_plus, z)
        rhs = lam * h_inner(u_plus, z, m)
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1, abs(lhs)))

    @pytest.mark.filterwarnings("error")
    def test_singular_shift_raises(self):
        """Shifting exactly onto a contracted eigenvalue breaks the solve."""
        d1 = np.diag([1.0, 2.0])
        op = KroneckerSumOperator([[d1, np.eye(2)], [np.eye(2), d1]])
        m = MetricSet.identity((2, 2))
        u = TensorSum.from_rank_one(RankOne([np.array([1.0, 0.0]),
                                             np.array([1.0, 0.0])]))
        # A_j for frozen e1 is diag(1,2) + I; shift with an exact eigenvalue
        with pytest.raises(ExplicitStepFailure):
            adm_explicit_step(op, m, u, 2.0, AdmConfig(restart_attempts=1,
                                                       rng_seed=0),
                              start=RankOne([np.array([1.0, 0.0]),
                                             np.array([1.0, 0.0])]))


class TestSweepLoop:
    def test_initial_guess_sweeps_to_a_seed_independent_value(self):
        """The sweep runs until the objective settles, not for one sweep."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        outs = [adm_initial_guess(op, m, AdmConfig(rng_seed=s))
                for s in (0, 1, 2)]
        for out in outs:
            assert out.converged
            assert out.sweeps_used > 1
            assert out.objective == pytest.approx(outs[0].objective, abs=1e-8)

    def test_one_sweep_is_not_converged(self):
        """A single sweep has no previous objective to compare with."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        out = adm_initial_guess(op, m, AdmConfig(max_sweeps=1))
        assert out.sweeps_used == 1
        assert not out.converged


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AdmConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            AdmConfig(tol_sweep=0.0)
