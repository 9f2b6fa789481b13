"""Inner alternating-direction solvers against brute-force direction oracles."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from greedy_eig import adm, greedy, secular
from greedy_eig.adm import (
    adm_explicit_step,
    adm_initial_guess,
    adm_rayleigh_step,
    adm_residual_step,
)
from greedy_eig.errors import (AdmFailure, DegenerateDirection,
                               ExplicitStepFailure, PoleCollision,
                               StructuralError)
from greedy_eig.greedy import GreedyConfig, Variant
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.tensor_core import (
    DirectionWorkspace,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    rebalance,
)
from rayleigh_check import normalize, rayleigh

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


def tensor4d_type(n=8, seed=0):
    """A d = 4 Kronecker sum shaped like the tensor4d benchmark operator:
    four one-body terms (a three-point Laplacian plus a diagonal potential)
    and two diagonal coupling products."""
    rng = np.random.default_rng(seed)
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    terms = []
    for j in range(4):
        term = [np.eye(n)] * 4
        term[j] = lap + np.diag(rng.uniform(0.0, 1.0, n))
        terms.append(term)
    terms += [[np.diag(rng.uniform(0.0, 1.0, n)) for _ in range(4)]
              for _ in range(2)]
    op = KroneckerSumOperator(terms)
    return op, MetricSet.identity(op.sizes)


def spd_mass_problem(seed, sizes=(5, 4, 3), K=3):
    """A d = 3 Kronecker sum with random SPD masses."""
    rng = np.random.default_rng(seed)
    op = KroneckerSumOperator(
        [[random_spd(n, rng) for n in sizes] for _ in range(K)])
    return op, MetricSet([random_spd(n, rng) for n in sizes])


def unit_iterate(op, m, seed=33):
    """A two-term iterate of unit metric norm near the rank-one minimizer,
    and its Rayleigh quotient: the form of the greedy iterate."""
    rng = np.random.default_rng(seed)
    base = adm_initial_guess(op, m, np.random.default_rng(0)).z
    u = normalize(base.plus(TensorSum.rank_one(
        [0.05 * rng.standard_normal(n) for n in op.sizes])), m)
    return u, rayleigh(op, m, u)


class TestInitialGuess:
    def test_attains_brute_force_rank_one_minimum(self):
        """Exhaustive alternating solve from many starts agrees with ADM."""
        op, m = small_problem(seed=3)
        out = adm_initial_guess(op, m, np.random.default_rng(0))
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
        for op, m in (small_problem(seed=4), spd_mass_problem(4)):
            out = adm_initial_guess(op, m, np.random.default_rng(0))
            u = out.z
            assert a_inner(m, u, u) == pytest.approx(1.0, rel=1e-13)

    def test_objective_matches_iterate(self):
        op, m = small_problem(seed=5)
        out = adm_initial_guess(op, m, np.random.default_rng(0))
        u = out.z
        assert rayleigh(op, m, u) == pytest.approx(out.objective, rel=1e-8)


class TestRayleighStep:
    def test_decreases_quotient_and_beats_random_directions(self):
        op, m = small_problem(seed=6)
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        out = adm_rayleigh_step(op, m, u, rayleigh(op, m, u),
                                np.random.default_rng(1))
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
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        out = adm_rayleigh_step(op, m, u, rayleigh(op, m, u),
                                np.random.default_rng(1))
        z = out.z
        u_new = u.plus(z)
        lam = rayleigh(op, m, u_new)
        lhs = a_inner(op, u_new, z)
        rhs = lam * a_inner(m, u_new, z)
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1, abs(lhs)))

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_is_the_quotient_under_a_mass(self, seed):
        """Under SPD masses, the objective read from the iterate's lambda and
        unit norm is the Rayleigh quotient of u + z."""
        op, m = spd_mass_problem(seed)
        u, lam = unit_iterate(op, m)
        out = adm_rayleigh_step(op, m, u, lam, np.random.default_rng(1))
        assert out.objective == pytest.approx(
            rayleigh(op, m, u.plus(out.z)), rel=1e-12)


class TestResidualStep:
    def test_beats_random_rank_one_candidates(self):
        op, m = small_problem(seed=8)
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        out = adm_residual_step(op, m, u, lam, NU, np.random.default_rng(1))

        def objective(z):
            up = u.plus(z)
            shifted = a_inner(op, up, up) + NU * a_inner(m, up, up)
            return 0.5 * shifted - lam * a_inner(m, u, z)

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
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        # dense Riesz representant
        a_full = np.zeros((9, 9))
        for term in op.terms:
            a_full += np.kron(term[0], term[1])
        u_vec = u.to_dense()
        r_vec = np.linalg.solve(a_full, lam * u_vec - a_full @ u_vec)

        out = adm_residual_step(op, m, u, lam, NU, np.random.default_rng(1))
        z_vec = out.z.to_dense()

        def dist2(zv):
            d = r_vec - zv
            return 0.5 * d @ a_full @ d

        base = dist2(z_vec)
        rng = np.random.default_rng(19)
        for _ in range(500):
            z = TensorSum.rank_one([0.3 * rng.standard_normal(n) for n in op.sizes])
            assert dist2(z.to_dense()) >= base - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_under_a_mass(self, seed):
        """Under SPD masses and a shift, the objective read from the
        iterate's lambda and unit norm is the shifted quadratic of z."""
        op, m = spd_mass_problem(seed)
        u, lam = unit_iterate(op, m)
        nu = 0.5
        out = adm_residual_step(op, m, u, lam, nu, np.random.default_rng(1))
        up = u.plus(out.z)
        want = (0.5 * (a_inner(op, up, up) + nu * a_inner(m, up, up))
                - (lam + nu) * a_inner(m, u, out.z))
        assert out.objective == pytest.approx(want, rel=1e-12)


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
        base = adm_initial_guess(op, m, np.random.default_rng(0)).z
        u = base.plus(
            TensorSum.rank_one([0.05 * rng.standard_normal(n) for n in op.sizes]))
        u = normalize(u, m)
        lam = rayleigh(op, m, u)
        out = adm_explicit_step(op, m, u, lam, np.random.default_rng(1))
        assert out.converged
        z = out.z
        u_plus = u.plus(z)
        # stationarity tested against the correction itself
        lhs = a_inner(op, u_plus, z)
        rhs = lam * a_inner(m, u_plus, z)
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1, abs(lhs)))

    @pytest.mark.parametrize("problem", [spd_mass_problem, tensor4d_type],
                             ids=["d3", "d4"])
    def test_mixed_solve_solves_every_direction_system(self, problem):
        """At d = 3 and 4, the factors a converged Anderson-mixed solve
        returns solve each contracted system
        (A_j - lambda M_j) s_j = lambda m_j - b_j, frozen at the others."""
        op, m = problem(seed=0)
        u, lam = unit_iterate(op, m)
        out = adm_explicit_step(op, m, u, lam, np.random.default_rng(1))
        assert out.converged
        factors = [f[:, 0] for f in out.z.factors]
        ws = DirectionWorkspace(op, m, u)
        for j, s in enumerate(factors):
            dd = ws.reduce(factors, j)
            rhs = lam * dd.m_j - dd.b_j
            residual = (dd.A_j - lam * dd.Mj_eff) @ s - rhs
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    def test_converges_on_the_cli_oracle_operator(self, monkeypatch):
        """Every explicit ADM solve of five-iteration runs on the benchmark's
        cli_oracle operator converges, in under 15 sweeps on average.  Plain
        fixed-point sweeps stopped unconverged at MAX_SWEEPS on 11 of these
        120 solves and took about 28 sweeps each."""
        op, m = gen_random_kronecker(2, (30, 24), 2, seed=1)
        outcomes, step = [], greedy.adm_explicit_step

        def recorded(*args, **kwargs):
            outcomes.append(step(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(greedy, "adm_explicit_step", recorded)
        for seed in range(1000, 1012):
            for orthogonal in (False, True):
                greedy.run(op, m, GreedyConfig(
                    variant=Variant.EXPLICIT, orthogonal=orthogonal,
                    max_iter=5, rng_seed=seed))
        assert len(outcomes) == 120
        assert all(out.converged for out in outcomes)
        assert np.mean([out.sweeps_used for out in outcomes]) < 15

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("rel", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_sweep_change_reads_the_change_not_rounding(self, d, rel):
        """The stop test's closed-form norm of z - z_prev matches the
        difference of the assembled elements, taken exactly in rationals,
        down to relative changes of 1e-12, far below the two-term Gram's
        rounding of z; its norm of z matches too."""
        rng = np.random.default_rng(d)
        sizes = (3, 4, 2, 3)[:d]
        prev = [rng.standard_normal(n) for n in sizes]
        cur = [p * (1 + rel * rng.standard_normal(len(p))) for p in prev]
        masses = [rng.uniform(0.5, 2.0, n) for n in sizes]

        def exact(factors, idx):
            return math.prod(Fraction(float(f[i])) for f, i in zip(factors, idx))

        indices = list(itertools.product(*map(range, sizes)))
        square = sum(
            exact(masses, idx) * (exact(cur, idx) - exact(prev, idx)) ** 2
            for idx in indices)
        cur_square = sum(exact(masses, idx) * exact(cur, idx) ** 2
                         for idx in indices)
        change, norm = adm._change_and_norm(prev, cur,
                                            [np.diag(w) for w in masses])
        assert change == pytest.approx(math.sqrt(square), rel=1e-10)
        assert norm == pytest.approx(math.sqrt(cur_square), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_singular_shift_raises(self, monkeypatch):
        """Shifting exactly onto a contracted eigenvalue breaks the solve;
        once every start has broken, AdmFailure carries the cause."""
        d1 = np.diag([1.0, 2.0])
        op = KroneckerSumOperator([[d1, np.eye(2)], [np.eye(2), d1]])
        m = MetricSet.identity((2, 2))
        u = TensorSum.rank_one([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        # A_j for frozen e1 is diag(1,2) + I; shift with an exact eigenvalue
        monkeypatch.setattr(adm, "RESTART_ATTEMPTS", 1)
        monkeypatch.setattr(adm, "seed_rank_one", lambda sizes, rng: u)
        with pytest.raises(AdmFailure) as failure:
            adm_explicit_step(op, m, u, 2.0, np.random.default_rng(0))
        assert isinstance(failure.value.__cause__, ExplicitStepFailure)


class TestAndersonMixing:
    """The mixing step driven by hand, one sweep's input and plain output
    at a time, through each branch of its safeguard."""

    TARGET = [np.array([1.0, 2.0, 2.0]), np.array([3.0, -4.0])]

    def sweep(self, factors, rate):
        """A plain output that moves factors 1..d-1 toward TARGET, its
        change scaled by ``rate`` from the input's."""
        return factors[:1] + [t + rate * (f - t)
                              for f, t in zip(factors[1:], self.TARGET)]

    def start(self):
        return [np.ones(4), np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0])]

    def test_first_step_returns_the_plain_output(self):
        mix, x = adm._anderson_mixing(), self.start()
        out = self.sweep(x, 0.5)
        assert mix(x, out) is out

    def test_shrinking_change_mixes(self):
        mix, x = adm._anderson_mixing(), self.start()
        x = mix(x, self.sweep(x, 0.5))
        out = self.sweep(x, 0.5)
        mixed = mix(x, out)
        assert mixed is not out and mixed[0] is out[0]
        for f, g in zip(mixed[1:], out[1:]):
            assert not np.allclose(f, g)
            # handed back at the plain output's norm
            assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(g))

    def test_growing_change_restarts_then_mixes_again(self):
        mix, x = adm._anderson_mixing(), self.start()
        x = mix(x, self.sweep(x, 0.9))
        out = self.sweep(x, 3.0)
        assert mix(x, out) is out
        x = out
        out = self.sweep(x, 0.2)
        assert mix(x, out) is not out

    def test_ill_conditioned_gram_returns_the_plain_output(self):
        """Length-1 factors 1..d-1 are +-1 at unit norm with matched signs,
        so the change is zero and the Gram of its differences fails the
        pivot test."""
        mix = adm._anderson_mixing()
        x = [np.ones(3), np.array([2.0]), np.array([-0.5])]
        out = [np.ones(3), np.array([3.0]), np.array([-0.25])]
        assert mix(x, out) is out
        again = [np.ones(3), np.array([4.0]), np.array([-0.125])]
        assert mix(out, again) is again


class TestBoundary:
    def test_metric_of_other_sizes_rejected(self):
        """The workspace refuses a metric whose sizes differ from the
        operator's, so every ADM solver does, before any update."""
        op, _ = small_problem(seed=2)
        wrong = MetricSet.identity((4, 5))
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError, match="metric sizes"):
            adm_initial_guess(op, wrong, rng)
        guess = adm_initial_guess(op, MetricSet.identity(op.sizes), rng)
        with pytest.raises(StructuralError, match="metric sizes"):
            adm_rayleigh_step(op, wrong, guess.z, guess.objective, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_balanced_rejects_non_finite_factor(self, bad):
        factor = np.ones(3)
        factor[1] = bad
        with pytest.raises(StructuralError, match="non-finite"):
            adm._balanced([np.ones(4), factor])

    def test_balanced_is_the_rebalanced_rank_one(self):
        factors = [np.array([3.0, 4.0]), np.array([0.0, 0.5, 0.0]), np.ones(2)]
        got = adm._balanced(factors)
        want = TensorSum.rank_one(rebalance(factors))
        assert got.sizes == want.sizes
        assert np.array_equal(got.coeffs, want.coeffs)
        for a, b in zip(got.factors, want.factors):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.fixture
def kept_objectives(monkeypatch):
    """Record the objective of every direction update of the ADM solves a
    test runs, in order."""
    kept, loop = [], adm._sweep_loop

    def recording_loop(op, m, context, rng, solve, *args, **kwargs):
        def recorded(dd, obj):
            new, obj = solve(dd, obj)
            kept.append(obj)
            return new, obj
        return loop(op, m, context, rng, recorded, *args, **kwargs)

    monkeypatch.setattr(adm, "_sweep_loop", recording_loop)
    return kept


class TestSweepLoop:
    def test_initial_guess_sweeps_to_a_seed_independent_value(self):
        """The sweep runs until the objective settles, not for one sweep."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        outs = [adm_initial_guess(op, m, np.random.default_rng(s))
                for s in (0, 1, 2)]
        for out in outs:
            assert out.converged
            assert out.sweeps_used > 1
            assert out.objective == pytest.approx(outs[0].objective, abs=1e-8)

    def test_one_sweep_is_not_converged(self, monkeypatch):
        """A single sweep has no previous objective to compare with."""
        op, m = gen_random_kronecker(2, (20, 20), 2, seed=0)
        monkeypatch.setattr(adm, "MAX_SWEEPS", 1)
        out = adm_initial_guess(op, m, np.random.default_rng(0))
        assert out.sweeps_used == 1
        assert not out.converged

    @staticmethod
    def zero_first_starts(monkeypatch, count):
        """Make the first ``count`` seeds have a zero second factor; return
        the list of seeds drawn and the unpatched ``seed_rank_one``."""
        seeds, draw = [], adm.seed_rank_one

        def seed_rank_one(sizes, rng):
            factors = [f[:, 0] for f in draw(sizes, rng).factors]
            seeds.append(factors)
            if len(seeds) <= count:
                factors[1] = np.zeros(sizes[1])
            return TensorSum.rank_one(factors)

        monkeypatch.setattr(adm, "seed_rank_one", seed_rank_one)
        return seeds, draw

    def test_start_with_a_zero_factor_reseeds(self, monkeypatch):
        """A start whose factor is zero breaks at its first contraction
        (DegenerateDirection) and the solve goes on from the next seed."""
        op, m = small_problem(seed=3)
        seeds, draw = self.zero_first_starts(monkeypatch, 1)
        out = adm_initial_guess(op, m, np.random.default_rng(0))
        assert len(seeds) == 2 and out.converged
        # the same solve as one whose stream skipped the broken draw
        rng = np.random.default_rng(0)
        draw(op.sizes, rng)
        monkeypatch.setattr(adm, "seed_rank_one", draw)
        want = adm_initial_guess(op, m, rng)
        assert out.objective == want.objective
        for a, b in zip(out.z.factors, want.z.factors):
            assert np.array_equal(a, b)

    def test_every_start_with_a_zero_factor_fails(self, monkeypatch):
        op, m = small_problem(seed=3)
        seeds, _ = self.zero_first_starts(monkeypatch, adm.RESTART_ATTEMPTS)
        with pytest.raises(AdmFailure) as failure:
            adm_initial_guess(op, m, np.random.default_rng(0))
        assert len(seeds) == adm.RESTART_ATTEMPTS == 3
        assert isinstance(failure.value.__cause__, DegenerateDirection)

    @pytest.mark.parametrize("rule", ["rayleigh", "residual", "explicit"])
    def test_a_rescaled_start_gives_the_same_outcome(self, rule, monkeypatch):
        """Scaling a balanced seed's factors by 1, 2^-60 and 2^60 leaves its
        rank-one element as it was, and every update of the sweep is
        homogeneous in the frozen factors, exactly so under powers of two.
        So the solve from the rescaled start returns the balanced start's
        outcome bitwise: the 2^-60 factor, frozen in the first update, does
        not count as zero by its own norm, and nothing rebalances inside
        the sweep."""
        op, m = spd_mass_problem(2)
        u, lam = unit_iterate(op, m)
        seed = [f[:, 0] for f in adm.seed_rank_one(
            op.sizes, np.random.default_rng(5)).factors]
        solve = {
            "rayleigh": lambda: adm_rayleigh_step(
                op, m, u, lam, np.random.default_rng(1)),
            "residual": lambda: adm_residual_step(
                op, m, u, lam, NU, np.random.default_rng(1)),
            "explicit": lambda: adm_explicit_step(
                op, m, u, lam, np.random.default_rng(1)),
        }[rule]
        outcomes = []
        for scales in ((1.0, 1.0, 1.0), (1.0, 2.0 ** -60, 2.0 ** 60)):
            start = TensorSum.rank_one([s * f for s, f in zip(scales, seed)])
            monkeypatch.setattr(adm, "seed_rank_one", lambda sizes, rng: start)
            outcomes.append(solve())
        balanced, rescaled = outcomes
        assert balanced.converged and balanced.sweeps_used > 2
        assert rescaled.sweeps_used == balanced.sweeps_used
        assert rescaled.converged == balanced.converged
        assert rescaled.objective == balanced.objective
        for a, b in zip(rescaled.z.factors, balanced.z.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rule", ["initial", "rayleigh", "residual"])
    def test_objective_never_rises(self, rule, kept_objectives):
        """Each minimizing update is exact over its slot, so no update of a
        plain sweep raises the objective."""
        kept = kept_objectives
        op, m = spd_mass_problem(1)
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        kept.clear()
        out = {
            "initial": lambda: adm_initial_guess(
                op, m, np.random.default_rng(0)),
            "rayleigh": lambda: adm_rayleigh_step(
                op, m, u, lam, np.random.default_rng(1)),
            "residual": lambda: adm_residual_step(
                op, m, u, lam, 1.0, np.random.default_rng(1)),
        }[rule]()
        assert out.converged
        assert kept[-1] == out.objective
        for a, b in zip(kept, kept[1:]):
            assert b <= a + 1e-13 * (1.0 + abs(a))

    def test_a_reseeded_start_begins_on_the_bordered_route(self, monkeypatch):
        """A start's first Rayleigh update has no value that its factors
        attain, so it takes the bordered route; every later update starts
        Newton's method from the objective the factors attain.  After a
        broken update (PoleCollision) the reseeded start begins on the
        bordered route again."""
        op, m = spd_mass_problem(1)
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        routes, newton, reduce = [], secular.newton_minimizer, secular.reduce

        def traced_newton(*args):
            routes.append(("newton", args[-1]))
            if len(routes) == 3:   # the first start's third update
                raise PoleCollision("a broken update")
            return newton(*args)

        def traced_reduce(*args):
            routes.append(("bordered", None))
            return reduce(*args)

        monkeypatch.setattr(secular, "newton_minimizer", traced_newton)
        monkeypatch.setattr(secular, "reduce", traced_reduce)
        out = adm_rayleigh_step(op, m, u, lam, np.random.default_rng(1))
        assert out.converged
        names = [name for name, _ in routes]
        assert names[:5] == ["bordered", "newton", "newton", "bordered",
                             "newton"]
        assert names.count("bordered") == 2
        assert all(math.isfinite(rho) for name, rho in routes
                   if name == "newton")


class TestDecreaseStop:
    """A Rayleigh or residual solve also stops once a sweep changes the
    objective by at most DECREASE_RTOL of its decrease below the zero
    correction's objective."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rule", ["rayleigh", "residual"])
    def test_converged_outcome_is_stationary(self, rule, seed, monkeypatch):
        """One more plain sweep from a converged outcome lowers the
        objective by at most the stop test's bound: the sweep tolerance or
        DECREASE_RTOL of the decrease below the zero correction's value."""
        op, m = spd_mass_problem(seed)
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        ref = lam if rule == "rayleigh" else 0.5 * (
            a_inner(op, u, u) + NU * a_inner(m, u, u))

        def solve():
            rng = np.random.default_rng(1)
            if rule == "rayleigh":
                return adm_rayleigh_step(op, m, u, lam, rng)
            return adm_residual_step(op, m, u, lam, NU, rng)

        out = solve()
        assert out.converged
        monkeypatch.setattr(adm, "MAX_SWEEPS", 1)
        # the next solve starts from the converged correction
        monkeypatch.setattr(adm, "seed_rank_one", lambda sizes, rng: out.z)
        again = solve()
        assert again.objective <= out.objective + 1e-13 * abs(out.objective)
        assert out.objective - again.objective <= max(
            adm.TOL_SWEEP * (1.0 + abs(out.objective)),
            adm.DECREASE_RTOL * (ref - out.objective))

    @pytest.mark.parametrize("rule", ["rayleigh", "residual"])
    def test_large_decrease_stops_by_the_relative_test(self, rule,
                                                       monkeypatch):
        op, m = tensor4d_type()
        u = adm_initial_guess(op, m, np.random.default_rng(0)).z
        lam = rayleigh(op, m, u)
        zero_obj = lam if rule == "rayleigh" else 0.5 * (
            a_inner(op, u, u) + NU * a_inner(m, u, u))
        checks, decrease_settled = [], adm._decrease_settled

        def recorded(ref):
            settled = decrease_settled(ref)

            def check(prev_factors, prev_obj, factors, obj):
                checks.append((ref, prev_obj, obj))
                return settled(prev_factors, prev_obj, factors, obj)
            return check

        def solve():
            rng = np.random.default_rng(1)
            if rule == "rayleigh":
                return adm_rayleigh_step(op, m, u, lam, rng)
            return adm_residual_step(op, m, u, lam, NU, rng)

        monkeypatch.setattr(adm, "_decrease_settled", recorded)
        out = solve()
        ref, prev_obj, obj = checks[-1]
        assert ref == pytest.approx(zero_obj, rel=1e-12)
        assert out.converged and obj == out.objective
        assert ref - obj > 1e-4 * abs(ref)
        assert abs(obj - prev_obj) > adm.TOL_SWEEP * (1.0 + abs(prev_obj))
        assert abs(obj - prev_obj) <= adm.DECREASE_RTOL * (ref - obj)

        monkeypatch.setattr(adm, "DECREASE_RTOL", 0.0)
        floor = solve()
        assert floor.converged and floor.sweeps_used > out.sweeps_used
        assert floor.objective <= out.objective

    def test_no_decrease_leaves_only_the_sweep_tolerance(self):
        settled = adm._decrease_settled(1.0)
        for obj in (1.0, 1.5):
            assert not settled(None, obj + 1e-6, None, obj)
            assert settled(None, obj + 1e-12, None, obj)
        # the same change settles a sweep well below the zero correction
        assert settled(None, 0.5 + 1e-6, None, 0.5)

    def test_explicit_runs_and_initial_guess_do_not_read_it(self,
                                                            monkeypatch):
        op, m = spd_mass_problem(0)

        def terms_bytes(z):
            return [z.coeffs.tobytes(), *(f.tobytes() for f in z.factors)]

        def outcomes():
            got = []
            for orthogonal in (False, True):
                res = greedy.run(op, m, GreedyConfig(
                    variant=Variant.EXPLICIT, orthogonal=orthogonal,
                    max_iter=8, rng_seed=3))
                got += [res.lam, res.reason, res.iterations,
                        [replace(row, wall_time=0.0) for row in res.trace],
                        *terms_bytes(res.u)]
            guess = adm_initial_guess(op, m, np.random.default_rng(0))
            return got + [guess.sweeps_used, guess.converged,
                          guess.objective, *terms_bytes(guess.z)]

        before = outcomes()
        monkeypatch.setattr(adm, "DECREASE_RTOL", 0.0)
        assert outcomes() == before
