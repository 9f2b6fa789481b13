"""Outer greedy drivers: monotonicity, termination, update identities."""

import dataclasses

import numpy as np
import pytest

from greedy_eig import greedy
from greedy_eig.dense_kernels import _openblas_pools
from greedy_eig.dense_kernels import cholesky_spd
from greedy_eig.errors import IllConditionedGram, StructuralError
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
    h_inner,
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
                     + (cfg.nu + lam_prev) * h_inner(z_t, z_t, m))
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
    def test_duplicated_member_is_dropped(self):
        """With u_0 twice in the basis, the orthogonal step gives the copy
        at the failing Cholesky pivot coefficient 0 and matches the step
        without it."""
        op, m = small_problem(seed=6)
        cfg = GreedyConfig(variant=Variant.RAYLEIGH, orthogonal=True, rng_seed=3)
        state = initialize(op, m, cfg)
        twice = state.u.plus(state.u.scaled(0.0))
        gram_a, gram_b = greedy._extend_grams(op, m, state.gram_a, state.gram_b,
                                              twice)
        with pytest.raises(IllConditionedGram) as info:
            cholesky_spd(gram_b)
        assert info.value.pivot == 1
        dup = dataclasses.replace(state, u=twice, gram_a=gram_a, gram_b=gram_b)
        got = orthogonal_update(dup, op, m, cfg)
        want = orthogonal_update(state, op, m, cfg)
        assert got.u.num_terms == 3
        assert got.u.coeffs[1] == 0.0
        assert want.u.num_terms == 2
        assert got.lam == pytest.approx(want.lam, rel=1e-12)
        assert np.allclose(got.u.to_dense(), want.u.to_dense(), atol=1e-10)


class TestTrapStagnation:
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

    def test_hand_driven_loop_matches_run(self):
        """initialize + step with one shared generator reproduce run's
        trace row for row: both take the shift from the config."""
        op, m = small_problem(seed=7)
        cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=50.0, max_iter=5,
                           tol_residual=1e-14, tol_lambda=1e-16)
        res = run(op, m, cfg)
        rng = np.random.default_rng(cfg.rng_seed)
        state = initialize(op, m, cfg, rng)
        while state.n < cfg.max_iter:
            state = step(state, op, m, cfg, rng)
        assert res.reason == "max_iter"

        def untimed(trace):
            return [dataclasses.replace(row, wall_time=0.0) for row in trace]

        assert untimed(state.trace) == untimed(res.trace)

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
