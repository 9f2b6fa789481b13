"""Outer greedy drivers: monotonicity, termination, update identities."""

import dataclasses
import math

import numpy as np
import pytest

from greedy_eig import greedy, tensor_core
from greedy_eig.dense_kernels import _openblas_pools
from greedy_eig.errors import StructuralError
from greedy_eig.greedy import (
    GreedyConfig,
    Variant,
    initialize,
    orthogonal_update,
    run,
    step,
)
from greedy_eig.problems import (
    gen_degenerate_lowest,
    gen_excited_trap,
    gen_random_kronecker,
    gen_separable,
)
from greedy_eig.reference_oracle import dense_reference, error_metrics
from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    eig_residual,
    h_norm,
)

ALL_VARIANTS = [
    (Variant.RAYLEIGH, False),
    (Variant.RESIDUAL, False),
    (Variant.EXPLICIT, False),
    (Variant.RAYLEIGH, True),
    (Variant.RESIDUAL, True),
    (Variant.EXPLICIT, True),
]


def small_problem(seed=0):
    return gen_random_kronecker(2, (7, 7), 2, seed=seed)


class TestMonotonicity:
    @pytest.mark.parametrize("variant,ortho", ALL_VARIANTS)
    def test_lambda_never_increases(self, variant, ortho):
        op, m = small_problem(seed=1)
        cfg = GreedyConfig(variant=variant, orthogonal=ortho, max_iter=30,
                           tol_residual=1e-11, rng_seed=3)
        res = run(op, m, cfg)
        lams = [row.lambda_n for row in res.trace]
        for a, b in zip(lams, lams[1:]):
            assert b <= a + 1e-10 * (1 + abs(a))

    @pytest.mark.parametrize("variant,ortho", ALL_VARIANTS)
    def test_converges_to_reference(self, variant, ortho):
        op, m = small_problem(seed=7)
        ref = dense_reference(op, m)
        cfg = GreedyConfig(variant=variant, orthogonal=ortho, max_iter=60,
                           tol_residual=1e-10, tol_lambda=1e-13, rng_seed=3)
        res = run(op, m, cfg)
        assert res.lam >= ref.mu1 - 1e-10
        assert abs(res.lam - ref.mu1) <= 1e-6


class TestIterates:
    def test_iterates_normalized(self):
        op, m = small_problem(seed=2)
        cfg = GreedyConfig(max_iter=10, rng_seed=3)
        res = run(op, m, cfg)
        assert len(res.iterates) == len(res.trace)
        for u in res.iterates:
            assert h_norm(u, m) == pytest.approx(1.0, abs=1e-10)

    def test_trace_decrease_telescopes(self):
        op, m = small_problem(seed=2)
        res = run(op, m, GreedyConfig(max_iter=10, rng_seed=3))
        total = sum(row.lambda_decrease for row in res.trace)
        assert total == pytest.approx(res.trace[0].lambda_n - res.lam, abs=1e-11)


class TestTermination:
    def test_separable_stops_at_start(self):
        rng = np.random.default_rng(5)
        mats = []
        for _ in range(2):
            g = rng.standard_normal((5, 5))
            mats.append(0.5 * (g + g.T) + 5 * np.eye(5))
        op = gen_separable(mats)
        m = MetricSet.identity(op.sizes)
        res = run(op, m, GreedyConfig(tol_residual=1e-8, rng_seed=0))
        assert res.reason == "InitialGuessIsEigenvector"
        assert res.iterations == 0
        expected = sum(np.linalg.eigvalsh(d)[0] for d in mats)
        assert res.lam == pytest.approx(expected, abs=1e-9)

    def test_identity_operator_trivial(self):
        op = KroneckerSumOperator([[np.eye(4), np.eye(4)]])
        m = MetricSet.identity((4, 4))
        res = run(op, m, GreedyConfig(tol_residual=1e-8, rng_seed=0))
        assert res.reason == "InitialGuessIsEigenvector"
        assert res.lam == pytest.approx(1.0)

    def test_max_iter_reported(self):
        op, m = small_problem(seed=3)
        cfg = GreedyConfig(variant=Variant.RESIDUAL, max_iter=2,
                           tol_residual=1e-14, tol_lambda=1e-16, rng_seed=3)
        res = run(op, m, cfg)
        assert res.reason == "max_iter"
        assert res.iterations == 2


@pytest.mark.parametrize("variant,ortho", ALL_VARIANTS)
def test_trace_matches_dense(variant, ortho):
    """Every trace scalar agrees with a dense recomputation from the kept
    iterates and the corrections, which are the columns of the final
    iterate's factors (u_0, z_1, ..., z_n)."""
    op, _ = gen_random_kronecker(2, (6, 5), 2, seed=4)
    rng = np.random.default_rng(8)
    masses = []
    for n in op.sizes:
        g = rng.standard_normal((n, n))
        masses.append(g @ g.T / n + np.eye(n))
    nu = 1.5
    m = MetricSet(masses)
    cfg = GreedyConfig(variant=variant, orthogonal=ortho, nu=nu, max_iter=8,
                       tol_residual=1e-13, tol_lambda=1e-15, rng_seed=3)
    res = run(op, m, cfg)
    assert len(res.trace) > 2

    a = sum(np.kron(*term) for term in op.terms)
    mass = np.kron(*masses)
    cols = res.u.factors
    for row in res.trace:
        u = res.iterates[row.n].to_dense()
        lam = u @ a @ u
        want = {"lambda_n": lam,
                "eig_residual_h": np.linalg.norm(a @ u - lam * mass @ u)}
        if row.n:
            prev = res.iterates[row.n - 1].to_dense()
            lam_prev = prev @ a @ prev
            z = np.kron(cols[0][:, row.n], cols[1][:, row.n])
            plus = prev + z
            alpha = 1.0 / np.sqrt(plus @ mass @ plus)
            pure = alpha * plus
            lam_pure = pure @ a @ pure
            if variant is Variant.RAYLEIGH:
                euler = z @ a @ pure - lam_pure * (z @ mass @ pure)
            elif variant is Variant.RESIDUAL:
                euler = (z @ (a + nu * mass) @ plus
                         - (lam_prev + nu) * (z @ mass @ prev))
            else:
                euler = z @ a @ plus - lam_prev * (z @ mass @ plus)
            want.update(lambda_pure=lam_pure, alpha_n=alpha,
                        z_norm_a=np.sqrt(z @ (a + nu * mass) @ z),
                        euler_residual=abs(euler))
        for name, value in want.items():
            got = getattr(row, name)
            assert abs(got - value) <= 1e-10 * max(1.0, abs(value)), (row.n, name)


class TestResidualDecreaseIdentity:
    def test_decrease_matches_correction_energy(self):
        """For the residual rule with zero shift, each decrease equals
        ||alpha*z||_a^2 + lambda_prev * ||alpha*z||_h^2 at exact stationarity;
        the computed decrease must not fall below it beyond solver slack."""
        op, m = small_problem(seed=4)
        cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=0.0, max_iter=1,
                           rng_seed=3)
        state = initialize(op, m, cfg)
        for _ in range(8):
            lam_prev = state.lam
            state = step(state, op, m, cfg)
            row = state.trace[-1]
            # the last term of the iterate is alpha_n * z
            u = state.u
            z_t = TensorSum(u.sizes, u.coeffs[-1:],
                            tuple(f[:, -1:] for f in u.factors))
            bound = (a_inner(op, z_t, z_t)
                     + (cfg.nu + lam_prev) * a_inner(m, z_t, z_t))
            decrease = lam_prev - row.lambda_n
            assert decrease >= bound * (1 - 1e-6) - 1e-12
            assert decrease == pytest.approx(bound, rel=1e-5, abs=1e-11)


class TestOrthogonalDominance:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_orthogonal_beats_pure_update(self, variant):
        op, m = small_problem(seed=6)
        cfg = GreedyConfig(variant=variant, orthogonal=True, max_iter=25,
                           tol_residual=1e-11, rng_seed=3)
        res = run(op, m, cfg)
        for row in res.trace[1:]:
            assert row.lambda_n <= row.lambda_pure + 1e-10 * (1 + abs(row.lambda_n))


class TestRankDeficientGram:
    def test_correction_in_the_span_keeps_the_iterate(self, monkeypatch):
        """A correction equal to the basis member u_0 adds nothing to the
        span: the orthogonal step keeps the iterate, its Grams and lambda,
        and records a zero decrease."""
        op, m = small_problem(seed=6)
        cfg = GreedyConfig(variant=Variant.RAYLEIGH, orthogonal=True, rng_seed=3)
        state = initialize(op, m, cfg)
        for _ in range(2):
            state = orthogonal_update(state, op, m, cfg)
        u = state.u
        u0 = TensorSum(u.sizes, [1.0], [f[:, :1] for f in u.factors])
        monkeypatch.setattr(greedy, "_compute_correction", lambda *args: u0)
        got = orthogonal_update(state, op, m, cfg)
        assert got.n == state.n + 1
        assert got.u.num_terms == u.num_terms == 3
        assert np.array_equal(got.u.coeffs, u.coeffs)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.u.factors, u.factors))
        assert np.array_equal(got.gram_a, state.gram_a)
        assert np.array_equal(got.gram_b, state.gram_b)
        assert got.lam == state.lam
        assert got.trace[-1].lambda_decrease == 0.0

    @pytest.mark.parametrize("variant", list(Variant))
    def test_small_problems_converge(self, variant):
        """On 9-dimensional problems the basis spans the space within a few
        steps; later corrections add nothing, and every orthogonal run stops
        by the stall test at mu1 instead of failing."""
        cfg = GreedyConfig(variant=variant, orthogonal=True, max_iter=30,
                           tol_lambda=1e-13, tol_residual=1e-15, rng_seed=1)
        for seed in range(5):
            op, m = gen_random_kronecker(2, (3, 3), 2, seed=seed)
            mu1 = dense_reference(op, m).mu1
            res = run(op, m, cfg)
            assert res.reason == "converged_lambda"
            assert abs(res.lam - mu1) <= 1e-13 * abs(mu1)


class TestExtendGrams:
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_grown_grams_equal_the_block_formula(self, n):
        """The grown Grams are bitwise the bordered matrices that np.block
        builds from the old Grams and the new row."""
        op, _ = small_problem(3)
        rng = np.random.default_rng(n)
        m = MetricSet([np.eye(7) + 0.1 * np.ones((7, 7)) for _ in range(2)])
        members = TensorSum((7, 7), rng.standard_normal(n + 1),
                            [rng.standard_normal((7, n + 1)) for _ in range(2)])
        g = rng.standard_normal((n, n))
        A, B = g + g.T, g @ g.T
        grown_a, grown_b = greedy._extend_grams(op, m, A, B, members)
        rows = np.ones((op.num_terms + 1, n + 1))
        for stack, mass, cols in zip(op.stacked, m.masses, members.factors):
            f = cols[:, -1]
            rows *= np.vstack([(stack @ f).reshape(op.num_terms, -1),
                               mass @ f]) @ cols
        a_row, b_row = rows[:-1].sum(axis=0), rows[-1]
        assert np.array_equal(grown_a, np.block([[A, a_row[:-1, None]], [a_row]]))
        assert np.array_equal(grown_b, np.block([[B, b_row[:-1, None]], [b_row]]))



def large_problem():
    """(17, 16, 16), 4,352 entries, above DENSE_NORM_LIMIT: K = 2 random
    SPD terms and random SPD masses."""
    op, _ = gen_random_kronecker(3, (17, 16, 16), 2, seed=1)
    rng = np.random.default_rng(5)
    masses = []
    for n in op.sizes:
        g = rng.standard_normal((n, n))
        masses.append(g @ g.T / n + np.eye(n))
    return op, MetricSet(masses)


def cache_copy(state):
    return [y.copy() for y in state.images], state.residual_grams.copy()


def same_cache(state, cache):
    images, grams = cache
    return (len(state.images) == len(images)
            and all(np.array_equal(a, b) for a, b in zip(state.images, images))
            and np.array_equal(state.residual_grams, grams))


class TestAboveDenseLimit:
    """Runs whose iterate has more than DENSE_NORM_LIMIT entries read the
    eigenpair residual from Grams grown with the basis."""

    @pytest.mark.parametrize("variant,ortho", ALL_VARIANTS)
    def test_recorded_residual_matches_a_fresh_build(self, variant, ortho):
        """Every row's eig_residual_h equals eig_residual of the row's
        iterate without Grams, to 1e-9 of the residual's scale."""
        op, m = large_problem()
        assert math.prod(op.sizes) > tensor_core.DENSE_NORM_LIMIT
        cfg = GreedyConfig(variant=variant, orthogonal=ortho, max_iter=12,
                           tol_lambda=1e-300, tol_residual=1e-300, rng_seed=2)
        res = run(op, m, cfg)
        assert res.reason == "max_iter" and len(res.trace) == 13
        op_norm = sum(np.prod([np.linalg.norm(f, 2) for f in term])
                      for term in op.terms)
        m_norm = np.prod([np.linalg.norm(f, 2) for f in m.masses])
        for row, u in zip(res.trace, res.iterates):
            size = np.abs(u.coeffs) @ np.prod(
                [np.linalg.norm(f, axis=0) for f in u.factors], axis=0)
            scale = (op_norm + abs(row.lambda_n) * m_norm) * size
            fresh = eig_residual(op, m, u, row.lambda_n)
            assert abs(row.eig_residual_h - fresh) <= 1e-9 * scale

    def test_correction_in_the_span_keeps_the_cache(self, monkeypatch):
        """A correction equal to the basis member u_0 leaves the images
        and the residual Grams as they were, bitwise."""
        op, m = large_problem()
        cfg = GreedyConfig(variant=Variant.RAYLEIGH, orthogonal=True, rng_seed=3)
        state = initialize(op, m, cfg)
        for _ in range(2):
            state = orthogonal_update(state, op, m, cfg)
        assert state.residual_grams.shape == (2, 2, 3, 3)
        before = cache_copy(state)
        u = state.u
        u0 = TensorSum(u.sizes, [1.0], [f[:, :1] for f in u.factors])
        monkeypatch.setattr(greedy, "_compute_correction", lambda *args: u0)
        got = orthogonal_update(state, op, m, cfg)
        assert got.u.num_terms == 3 and got.lam == state.lam
        assert same_cache(got, before) and same_cache(state, before)

    @pytest.mark.parametrize("advance", [step, orthogonal_update])
    def test_stepping_a_state_twice_leaves_its_cache(self, advance):
        """Growing the cache copies it: the state stepped keeps its images
        and Grams, and both steps grow the same ones."""
        op, m = large_problem()
        cfg = GreedyConfig(max_iter=5, rng_seed=2)
        state = advance(initialize(op, m, cfg), op, m, cfg)
        before = cache_copy(state)
        first, second = (advance(state, op, m, cfg) for _ in range(2))
        assert same_cache(state, before)
        assert same_cache(second, cache_copy(first))
        assert first.residual_grams.shape == (2, 2, 3, 3)

# (modes per dimension, rule, orthogonal, solver seeds) of trap runs at
# max_iter 30 that once ended in a step failure at their first or second
# step: PoleCollision under the Rayleigh rule, ExplicitStepFailure (a
# singular direction system) under the explicit rule
TRAP_BREAKS = [
    (3, Variant.RAYLEIGH, False, (2, 14)), (3, Variant.RAYLEIGH, True, (2, 14)),
    (4, Variant.RAYLEIGH, False, (9,)), (4, Variant.RAYLEIGH, True, (9,)),
    (5, Variant.EXPLICIT, False, (0, 4, 5, 14, 17)),
    (5, Variant.EXPLICIT, True, (0, 4, 5, 14, 17)),
    (6, Variant.EXPLICIT, False, (0, 2, 4, 9, 18)),
    (6, Variant.EXPLICIT, True, (0, 2)),
]


class TestTrapStagnation:
    @pytest.mark.parametrize("modes, variant, ortho, seeds", TRAP_BREAKS, ids=[
        f"{n}-{'orthogonal-' * o}{v.value}" for n, v, o, _ in TRAP_BREAKS])
    def test_broken_direction_update_reseeds(self, modes, variant, ortho, seeds):
        """A direction update that breaks reseeds its ADM solve rather
        than ending a solvable run."""
        op, m = gen_excited_trap(modes_per_dim=modes)
        for seed in seeds:
            cfg = GreedyConfig(variant=variant, orthogonal=ortho, max_iter=30,
                               rng_seed=seed)
            res = run(op, m, cfg)
            assert not res.reason.startswith("step_failure"), (seed, res.reason)
            assert res.lam >= 1.0 - 1e-9   # mu_02, the dense minimum

    def test_pure_rayleigh_stalls_at_entangled_level(self):
        op, m = gen_excited_trap(1.0, 2.0, 17.0, 20.0, 3)
        cfg = GreedyConfig(variant=Variant.RAYLEIGH, max_iter=40,
                           tol_lambda=1e-13, rng_seed=0)
        res = run(op, m, cfg)
        ref = dense_reference(op, m)
        assert ref.mu1 == pytest.approx(1.0, abs=1e-9)
        # the iteration stagnates at the best rank-one value, not the minimum
        assert res.lam == pytest.approx(2.0, abs=1e-6)


class TestDegenerateLowest:
    def test_converges_into_the_eigenspace(self):
        op, m = gen_degenerate_lowest((6, 6), 2, seed=3)
        ref = dense_reference(op, m)
        cfg = GreedyConfig(variant=Variant.RAYLEIGH, max_iter=60,
                           tol_residual=1e-10, tol_lambda=1e-13, rng_seed=3)
        res = run(op, m, cfg)
        errs = error_metrics([res.u], [res.lam], ref, cfg.nu)
        assert errs["err_lambda"][0] <= 1e-8
        assert errs["err_vec_h"][0] <= 1e-4


class TestConfigAndShift:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GreedyConfig(max_iter=0)
        with pytest.raises(ValueError):
            GreedyConfig(tol_lambda=0.0)
        with pytest.raises(ValueError):
            GreedyConfig(nu=-1.0)
        for bad in ({"nu": float("nan")}, {"nu": float("inf")},
                    {"tol_lambda": float("nan")},
                    {"tol_residual": float("inf")}, {"max_iter": 2.5},
                    {"max_iter": 3.0}, {"max_iter": "3"}, {"rng_seed": -1},
                    {"rng_seed": 1.5}, {"rng_seed": "3"}, {"rng_seed": True},
                    {"max_iter": True},
                    {"orthogonal": "false"}, {"orthogonal": 1}):
            with pytest.raises(ValueError):
                GreedyConfig(**bad)
        assert GreedyConfig(max_iter=np.int64(3)).max_iter == 3
        assert GreedyConfig(rng_seed=np.uint32(0)).rng_seed == 0

    @pytest.mark.parametrize("field", ["nu", "tol_lambda", "tol_residual"])
    def test_shift_and_tolerances_must_be_numbers(self, field):
        """A boolean is refused rather than run as 1.0, and so is a string,
        with a message naming the field."""
        for bad in (True, "1"):
            with pytest.raises(ValueError, match=field):
                GreedyConfig(**{field: bad})

    @pytest.mark.parametrize("variant", ["rayleigh", "nonsense", 3, None])
    def test_variant_must_be_a_member(self, variant):
        """A variant that is not a ``Variant`` member, its name included,
        is refused rather than run as the explicit rule."""
        with pytest.raises(ValueError, match="variant"):
            GreedyConfig(variant=variant, max_iter=5, rng_seed=3)

    def test_nu_warning(self):
        d = np.diag([-5.0, 1.0])
        op = KroneckerSumOperator([[d, np.eye(2)], [np.eye(2), d]])
        m = MetricSet.identity((2, 2))
        cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=1.0, max_iter=1)
        with pytest.warns(UserWarning, match="nu=1.0"):
            run(op, m, cfg)

    @pytest.mark.filterwarnings("error")
    def test_nu_no_warning_when_safe(self):
        op, m = small_problem(seed=7)
        run(op, m, GreedyConfig(variant=Variant.RESIDUAL, nu=0.0, max_iter=1))

    @pytest.mark.parametrize("variant,ortho", ALL_VARIANTS)
    def test_hand_driven_loop_matches_run(self, variant, ortho):
        """initialize + step (orthogonal_update for the orthogonal flavour)
        reproduce run's trace row for row: both take the shift and the seed
        from the config."""
        op, m = small_problem(seed=7)
        cfg = GreedyConfig(variant=variant, orthogonal=ortho, nu=50.0,
                           max_iter=5, tol_residual=1e-14, tol_lambda=1e-16)
        res = run(op, m, cfg)
        advance = orthogonal_update if ortho else step
        state = initialize(op, m, cfg)
        while state.n < cfg.max_iter:
            state = advance(state, op, m, cfg)
        assert res.reason == "max_iter"

        def untimed(trace):
            return [dataclasses.replace(row, wall_time=0.0) for row in trace]

        assert untimed(state.trace) == untimed(res.trace)
        assert np.array_equal(state.u.to_dense(), res.u.to_dense())

    @pytest.mark.parametrize("advance", [step, orthogonal_update])
    def test_stepping_a_state_twice_gives_the_same_step(self, advance):
        """A step draws from a copy of the state's generator, so the state
        it was given can be stepped again."""
        op, m = small_problem(seed=7)
        cfg = GreedyConfig(max_iter=5, rng_seed=2)
        state = advance(initialize(op, m, cfg), op, m, cfg)
        first, second = (advance(state, op, m, cfg) for _ in range(2))
        assert first.lam == second.lam
        assert np.array_equal(first.u.coeffs, second.u.coeffs)
        for f, g in zip(first.u.factors, second.u.factors):
            assert np.array_equal(f, g)
        assert (first.rng.bit_generator.state
                == second.rng.bit_generator.state)

    def test_shift_does_not_change_limit(self):
        op, m = small_problem(seed=7)
        ref = dense_reference(op, m)
        cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=25.0, max_iter=80,
                           tol_residual=1e-10, tol_lambda=1e-13, rng_seed=3)
        res = run(op, m, cfg)
        assert abs(res.lam - ref.mu1) <= 1e-5


def _thread_counts():
    return [get() for get, _ in _openblas_pools()]


@pytest.mark.skipif(not _openblas_pools(),
                    reason="no bundled OpenBLAS thread-count symbols found")
class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        """Start from two threads per pool so a restore is observable."""
        saved = _thread_counts()
        for _, set_ in _openblas_pools():
            set_(2)
        yield
        for (_, set_), count in zip(_openblas_pools(), saved):
            set_(count)

    def test_run_holds_one_thread_and_restores(self, monkeypatch):
        seen = []
        original = greedy.initialize

        def spy(*args, **kwargs):
            seen.append(_thread_counts())
            return original(*args, **kwargs)

        monkeypatch.setattr(greedy, "initialize", spy)
        op, m = small_problem()
        run(op, m, GreedyConfig(max_iter=3))
        assert seen == [[1] * len(_openblas_pools())]
        assert _thread_counts() == [2] * len(_openblas_pools())

    def test_counts_restored_when_run_raises(self):
        op, _ = small_problem()
        with pytest.raises(StructuralError):
            run(op, MetricSet.identity((5, 5)), GreedyConfig())
        assert _thread_counts() == [2] * len(_openblas_pools())
