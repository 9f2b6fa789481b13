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
from greedy_eig.errors import ExplicitStepFailure, StructuralError
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    h_inner,
    normalize,
    rayleigh,
)

RNG = np.random.default_rng(21)
NU = 0.0   # the residual rule's shift in these tests


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
        out = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0))
        val = out.objective
        # multi-start brute force over normalized rank-one grid
        rng = np.random.default_rng(99)
        best = min(
            rayleigh(op, m, TensorSum.rank_one(
                [rng.standard_normal(n) for n in op.sizes]))
            for _ in range(5000)
        )
        assert val <= best + 1e-9

    def test_unit_norm(self):
        op, m = small_problem(seed=4)
        out = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0))
        u = out.z
        assert h_inner(u, u, m) == pytest.approx(1.0)

    def test_objective_matches_iterate(self):
        op, m = small_problem(seed=5)
        out = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0))
        u = out.z
        assert rayleigh(op, m, u) == pytest.approx(out.objective, rel=1e-8)


class TestRayleighStep:
    def test_decreases_quotient_and_beats_random_directions(self):
        op, m = small_problem(seed=6)
        u = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        out = adm_rayleigh_step(op, m, u, AdmConfig(), np.random.default_rng(1))
        val = rayleigh(op, m, u.plus(out.z))
        assert val <= rayleigh(op, m, u) + 1e-12
        assert val == pytest.approx(out.objective, rel=1e-8)
        rng = np.random.default_rng(17)
        for _ in range(2000):
            z = TensorSum.rank_one([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert rayleigh(op, m, u.plus(z)) >= val - 1e-9

    def test_fixed_point_satisfies_euler_identity(self):
        """At the step's stationary point, a(u_new, z) = J(u_new) <u_new, z>."""
        op, m = small_problem(seed=7)
        u = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        out = adm_rayleigh_step(op, m, u, AdmConfig(), np.random.default_rng(1))
        z = out.z
        u_new = u.plus(z)
        lam = rayleigh(op, m, u_new)
        lhs = a_inner(op, u_new, z)
        rhs = lam * h_inner(u_new, z, m)
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1, abs(lhs)))


class TestResidualStep:
    def test_beats_random_rank_one_candidates(self):
        op, m = small_problem(seed=8)
        u = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        out = adm_residual_step(op, m, u, lam, NU, AdmConfig(),
                                np.random.default_rng(1))

        def objective(z):
            up = u.plus(z)
            shifted = a_inner(op, up, up) + NU * h_inner(up, up, m)
            return 0.5 * shifted - lam * h_inner(u, z, m)

        val = objective(out.z)
        assert val == pytest.approx(out.objective, rel=1e-8)
        rng = np.random.default_rng(18)
        for _ in range(2000):
            z = TensorSum.rank_one([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert objective(z) >= val - 1e-9

    def test_riesz_reformulation(self):
        """The step minimizes the shifted-norm distance to the residual image.

        The minimized quadratic differs from 0.5*||R - z||_a^2 only by a
        constant, where R solves <R, v>_a = lam <u, v> - a(u, v) for all v;
        the two objectives must rank candidates identically.
        """
        op, m = small_problem(seed=9, sizes=(3, 3), K=2)
        u = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        # dense Riesz representant
        a_full = np.zeros((9, 9))
        for term in op.terms:
            a_full += np.kron(term[0], term[1])
        u_vec = u.to_dense()
        r_vec = np.linalg.solve(a_full, lam * u_vec - a_full @ u_vec)

        out = adm_residual_step(op, m, u, lam, NU, AdmConfig(),
                                np.random.default_rng(1))
        z_vec = out.z.to_dense()

        def dist2(zv):
            d = r_vec - zv
            return 0.5 * d @ a_full @ d

        base = dist2(z_vec)
        rng = np.random.default_rng(19)
        for _ in range(500):
            z = TensorSum.rank_one([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert dist2(z.to_dense()) >= base - 1e-9


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
        base = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        u = base.plus(
            TensorSum.rank_one([0.05 * rng.standard_normal(n) for n in op.sizes]))
        u = normalize(u, m)
        lam = rayleigh(op, m, u)
        out = adm_explicit_step(op, m, u, lam, AdmConfig(),
                                np.random.default_rng(1))
        assert out.converged
        z = out.z
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
        u = TensorSum.rank_one([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        # A_j for frozen e1 is diag(1,2) + I; shift with an exact eigenvalue
        with pytest.raises(ExplicitStepFailure):
            adm_explicit_step(op, m, u, 2.0, AdmConfig(restart_attempts=1),
                              np.random.default_rng(0),
                              start=TensorSum.rank_one([np.array([1.0, 0.0]),
                                                        np.array([1.0, 0.0])]))


class TestStart:
    """A start is one rank-one term; its coefficient goes into its first
    factor, for every solver that takes a start."""

    @pytest.fixture
    def solve(self, request):
        op, m = small_problem(seed=10)
        rng = np.random.default_rng(33)
        base = adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(0)).z
        u = normalize(base.plus(TensorSum.rank_one(
            [0.05 * rng.standard_normal(n) for n in op.sizes])), m)
        lam = rayleigh(op, m, u)
        cfg = AdmConfig()
        solvers = {
            "rayleigh": lambda start: adm_rayleigh_step(
                op, m, u, cfg, np.random.default_rng(1), start=start),
            "residual": lambda start: adm_residual_step(
                op, m, u, lam, 1.0, cfg, np.random.default_rng(1), start=start),
            "explicit": lambda start: adm_explicit_step(
                op, m, u, lam, cfg, np.random.default_rng(1), start=start),
        }
        return op, solvers[request.param]

    @pytest.mark.parametrize("solve", ["rayleigh", "residual", "explicit"],
                             indirect=True)
    def test_two_term_start_rejected(self, solve):
        op, run_from = solve
        rng = np.random.default_rng(5)
        z = TensorSum.rank_one([rng.standard_normal(n) for n in op.sizes])
        with pytest.raises(StructuralError):
            run_from(z.plus(z.scaled(0.5)))

    @pytest.mark.parametrize("solve", ["rayleigh", "residual", "explicit"],
                             indirect=True)
    def test_start_coefficient_goes_into_first_factor(self, solve):
        op, run_from = solve
        rng = np.random.default_rng(6)
        factors = [rng.standard_normal(n) for n in op.sizes]
        scaled = run_from(TensorSum.rank_one(factors).scaled(-2.5))
        folded = run_from(TensorSum.rank_one([-2.5 * factors[0], *factors[1:]]))
        assert scaled.z.num_terms == 1 and scaled.z.coeffs.tolist() == [1.0]
        assert (scaled.sweeps_used, scaled.objective) == (folded.sweeps_used,
                                                          folded.objective)
        for a, b in zip(scaled.z.factors, folded.z.factors):
            assert np.array_equal(a, b)


class TestSweepLoop:
    def test_initial_guess_sweeps_to_a_seed_independent_value(self):
        """The sweep runs until the objective settles, not for one sweep."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        outs = [adm_initial_guess(op, m, AdmConfig(), np.random.default_rng(s))
                for s in (0, 1, 2)]
        for out in outs:
            assert out.converged
            assert out.sweeps_used > 1
            assert out.objective == pytest.approx(outs[0].objective, abs=1e-8)

    def test_one_sweep_is_not_converged(self):
        """A single sweep has no previous objective to compare with."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        out = adm_initial_guess(op, m, AdmConfig(max_sweeps=1),
                                np.random.default_rng(0))
        assert out.sweeps_used == 1
        assert not out.converged


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AdmConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            AdmConfig(tol_sweep=0.0)
        for bad in ({"tol_sweep": float("nan")}, {"tol_sweep": float("inf")},
                    {"max_sweeps": 2.5}, {"restart_attempts": 0},
                    {"restart_attempts": 1.5}):
            with pytest.raises(ValueError):
                AdmConfig(**bad)
        with pytest.raises(TypeError):   # the seed is GreedyConfig's
            AdmConfig(rng_seed=1)
        cfg = AdmConfig(max_sweeps=np.int32(5), restart_attempts=np.int64(2))
        assert (cfg.max_sweeps, cfg.restart_attempts) == (5, 2)
