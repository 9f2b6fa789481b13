"""Factored tensor arithmetic checked against dense Kronecker assembly."""

import numpy as np
import pytest

from greedy_eig.errors import DegenerateIterate, StructuralError
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.tensor_core import (
    DirectionWorkspace,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    apply_operator,
    eig_residual,
    euclidean_norm,
    h_inner,
    h_norm,
    normalize,
    rayleigh,
    rebalance,
)

RNG = np.random.default_rng(42)


def random_sym(n, rng=RNG):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_spd(n, rng=RNG):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def random_operator(sizes, K, rng=RNG):
    return KroneckerSumOperator(
        [[random_sym(n, rng) for n in sizes] for _ in range(K)]
    )


def random_tensor_sum(sizes, terms, rng=RNG):
    u = TensorSum(sizes)
    for c in rng.standard_normal(terms):
        z = TensorSum.rank_one([rng.standard_normal(n) for n in sizes])
        u = u.plus(z.scaled(c))
    return u


def dense_op(op):
    total = None
    for term in op.terms:
        t = np.array([[1.0]])
        for f in term:
            t = np.kron(t, f)
        total = t if total is None else total + t
    return total


def dense_metric(m):
    t = np.array([[1.0]])
    for mm in m.masses:
        t = np.kron(t, mm)
    return t


class TestConstruction:
    def test_factors_are_symmetrized(self):
        g = np.arange(9.0).reshape(3, 3)
        op = KroneckerSumOperator([[g, g]])
        for f in op.terms[0]:
            assert np.allclose(f, f.T)

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(StructuralError):
            KroneckerSumOperator([[np.eye(2), np.eye(3)], [np.eye(3), np.eye(3)]])

    def test_rejects_single_dimension(self):
        with pytest.raises(StructuralError):
            KroneckerSumOperator([[np.eye(3)]])

    def test_metric_rejects_indefinite_mass(self):
        with pytest.raises(StructuralError):
            MetricSet([np.diag([1.0, -1.0]), np.eye(2)])

    def test_rank_one_is_a_one_term_sum(self):
        f, g = np.arange(1.0, 3.0), np.arange(1.0, 4.0)
        z = TensorSum.rank_one([f, g])
        assert z.num_terms == 1 and z.coeffs.tolist() == [1.0]
        assert np.array_equal(z.to_dense(), np.kron(f, g))
        assert np.array_equal(z.scaled(-2.0).to_dense(), -2.0 * np.kron(f, g))

    @pytest.mark.parametrize("factors", [
        [np.ones(3)],
        [np.ones(3), np.array([1.0, np.nan])],
        [np.array([np.inf, 1.0]), np.ones(3)],
    ], ids=["single_factor", "nan_factor", "inf_factor"])
    def test_rank_one_rejects_bad_factors(self, factors):
        with pytest.raises(StructuralError):
            TensorSum.rank_one(factors)

    def test_rebalanced_preserves_tensor(self):
        factors = [3.0 * np.ones(2), 0.25 * np.ones(3)]
        balanced = rebalance(factors)
        a = TensorSum.rank_one(factors).to_dense()
        b = TensorSum.rank_one(balanced).to_dense()
        assert np.allclose(a, b)
        norms = [np.linalg.norm(f) for f in balanced]
        assert np.allclose(norms, norms[0])
        assert rebalance([np.zeros(2), np.ones(3)]) is None


class TestInnerProducts:
    def test_h_inner_matches_dense(self):
        sizes = (3, 4)
        m = MetricSet([random_spd(n) for n in sizes])
        u = random_tensor_sum(sizes, 3)
        v = random_tensor_sum(sizes, 2)
        dense = u.to_dense() @ dense_metric(m) @ v.to_dense()
        assert np.isclose(h_inner(u, v, m), dense)

    def test_metric_is_a_one_term_form(self):
        """a_inner with the metric as the form is <u, v> = u^T M v."""
        rng = np.random.default_rng(12)
        for sizes in ((3, 4), (2, 3, 4)):
            m = MetricSet([random_spd(n, rng) for n in sizes])
            assert m.num_terms == 1
            u = random_tensor_sum(sizes, 3, rng)
            v = random_tensor_sum(sizes, 2, rng)
            dense = u.to_dense() @ dense_metric(m) @ v.to_dense()
            assert np.isclose(a_inner(m, u, v), dense)

    def test_a_inner_matches_dense(self):
        sizes = (3, 4, 2)
        op = random_operator(sizes, 2)
        u = random_tensor_sum(sizes, 3)
        v = random_tensor_sum(sizes, 2)
        dense = u.to_dense() @ dense_op(op) @ v.to_dense()
        assert np.isclose(a_inner(op, u, v), dense)

    def test_euclidean_norm_matches_dense(self):
        u = random_tensor_sum((4, 3), 4)
        assert np.isclose(euclidean_norm(u), np.linalg.norm(u.to_dense()))

    def test_zero_tensor_norms(self):
        sizes = (3, 3)
        m = MetricSet.identity(sizes)
        z = TensorSum(sizes)
        assert h_norm(z, m) == 0.0
        assert euclidean_norm(z) == 0.0
        assert rayleigh(random_operator(sizes, 1), m, z) == np.inf

    def test_normalize_unit_norm(self):
        sizes = (3, 4)
        m = MetricSet([random_spd(n) for n in sizes])
        u = normalize(random_tensor_sum(sizes, 3), m)
        assert np.isclose(h_norm(u, m), 1.0)

    def test_normalize_zero_raises(self):
        m = MetricSet.identity((3, 3))
        with pytest.raises(DegenerateIterate):
            normalize(TensorSum((3, 3)), m)

    def test_shape_mismatch_raises(self):
        m = MetricSet.identity((3, 3))
        with pytest.raises(StructuralError):
            h_inner(random_tensor_sum((3, 3), 1), random_tensor_sum((3, 4), 1), m)


class TestOperatorApplication:
    def test_apply_operator_matches_dense(self):
        sizes = (3, 4)
        op = random_operator(sizes, 3)
        u = random_tensor_sum(sizes, 2)
        assert np.allclose(apply_operator(op, u).to_dense(),
                           dense_op(op) @ u.to_dense())

    def test_apply_metric_matches_dense(self):
        """M u is the metric applied as a one-term operator."""
        for sizes in ((3, 4), (2, 3, 4)):
            m = MetricSet([random_spd(n) for n in sizes])
            u = random_tensor_sum(sizes, 2)
            assert np.allclose(apply_operator(m, u).to_dense(),
                               dense_metric(m) @ u.to_dense())

    def test_to_dense_matches_kron(self):
        sizes = (3, 2, 4)
        u = random_tensor_sum(sizes, 3)
        ref = sum(c * np.kron(np.kron(u.factors[0][:, k], u.factors[1][:, k]),
                              u.factors[2][:, k])
                  for k, c in enumerate(u.coeffs))
        assert np.allclose(u.to_dense(), ref)

    def test_eig_residual_resolves_exact_eigenvector(self):
        """An exact eigenpair's residual reads near rounding, not at the
        1e-8 floor of a squared (Gram) evaluation."""
        for seed in range(5):
            op, m = gen_random_kronecker(2, (20, 20), 2, seed=seed)
            vals, vecs = np.linalg.eigh(dense_op(op))
            uu, ss, vv = np.linalg.svd(vecs[:, 0].reshape(20, 20))
            u = TensorSum((20, 20), ss, (uu, vv.T))
            assert eig_residual(op, m, u, vals[0]) < 1e-11

    def test_eig_residual_matches_dense(self):
        sizes = (3, 3)
        op = random_operator(sizes, 2)
        m = MetricSet([random_spd(n) for n in sizes])
        u = random_tensor_sum(sizes, 2)
        lam = 1.7
        dense = np.linalg.norm(
            dense_op(op) @ u.to_dense() - lam * dense_metric(m) @ u.to_dense()
        )
        assert np.isclose(eig_residual(op, m, u, lam), dense)


class TestDirectionReduction:
    def test_reduction_matches_dense_quadratics(self):
        """The contracted data reproduces the dense bilinear forms."""
        sizes = (3, 4, 2)
        rng = np.random.default_rng(5)
        op = random_operator(sizes, 2, rng)
        m = MetricSet([random_spd(n, rng) for n in sizes])
        ctx = random_tensor_sum(sizes, 2, rng)
        frozen = [rng.standard_normal(n) for n in sizes]
        a_dense = dense_op(op)
        m_dense = dense_metric(m)
        c_vec = ctx.to_dense()
        for j in range(3):
            dd = DirectionWorkspace(op, m, ctx).reduce(frozen, j)
            for trial in range(3):
                s = rng.standard_normal(sizes[j])
                zf = list(frozen)
                zf[j] = s
                z = TensorSum.rank_one(zf).to_dense()
                assert np.isclose(s @ dd.A_j @ s, z @ a_dense @ z)
                assert np.isclose(s @ dd.Mj_eff @ s, z @ m_dense @ z)
                assert np.isclose(dd.b_j @ s, c_vec @ a_dense @ z)
                assert np.isclose(dd.m_j @ s, c_vec @ m_dense @ z)
            assert np.isclose(dd.alpha, c_vec @ a_dense @ c_vec)
            assert np.isclose(dd.beta, c_vec @ m_dense @ c_vec)

    def test_workspace_matches_one_shot(self):
        sizes = (4, 3)
        rng = np.random.default_rng(6)
        op = random_operator(sizes, 2, rng)
        m = MetricSet.identity(sizes)
        ctx = random_tensor_sum(sizes, 3, rng)
        ws = DirectionWorkspace(op, m, ctx)
        frozen = [rng.standard_normal(n) for n in sizes]
        for j in range(2):
            a = ws.reduce(frozen, j)
            b = DirectionWorkspace(op, m, ctx).reduce(frozen, j)
            assert np.allclose(a.A_j, b.A_j)
            assert np.allclose(a.b_j, b.b_j)
            assert np.allclose(a.m_j, b.m_j)

    def test_workspace_follows_replaced_factors(self):
        """Contractions kept for a slot are dropped once its factor changes."""
        sizes = (3, 4, 2)
        rng = np.random.default_rng(8)
        op = random_operator(sizes, 2, rng)
        m = MetricSet([random_spd(n, rng) for n in sizes])
        ctx = random_tensor_sum(sizes, 2, rng)
        ws = DirectionWorkspace(op, m, ctx)
        frozen = [rng.standard_normal(n) for n in sizes]
        for j in (0, 1, 2, 0):
            ws.reduce(frozen, j)
            frozen[(j + 1) % 3] = rng.standard_normal(sizes[(j + 1) % 3])
            a = ws.reduce(frozen, j)
            b = DirectionWorkspace(op, m, ctx).reduce(frozen, j)
            for field in ("A_j", "Mj_eff", "b_j", "m_j"):
                assert np.allclose(getattr(a, field), getattr(b, field))
