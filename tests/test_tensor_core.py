"""Factored tensor arithmetic checked against dense Kronecker assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_eig import tensor_core
from greedy_eig.errors import DegenerateDirection, StructuralError
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.reference_oracle import dense_assemble
from greedy_eig.tensor_core import (
    DirectionWorkspace,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    eig_residual,
    h_norm,
    rebalance,
    symmetrize_factor,
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
        """A factor symmetric up to rounding is accepted and stored as
        0.5 (A + A^T), which is exactly symmetric."""
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
        a = (q * np.arange(1.0, 7.0)) @ q.T
        assert not np.array_equal(a, a.T)
        op = KroneckerSumOperator([[a, a]])
        for f in op.terms[0]:
            assert np.array_equal(f, f.T)
            assert np.array_equal(f, 0.5 * (a + a.T))

    @pytest.mark.parametrize("factor", [np.arange(9.0).reshape(3, 3),
                                        np.array([[1.0, 2.0], [0.0, 1.0]])])
    def test_asymmetric_factor_refused(self, factor):
        """Not rewritten as 0.5 (A + A^T): [[1, 2], [0, 1]] would become
        [[1, 1], [1, 1]] and change the operator."""
        n = len(factor)
        with pytest.raises(StructuralError, match="asymmetric"):
            KroneckerSumOperator([[np.eye(n), factor]])

    @pytest.mark.parametrize("factor", [np.ones((2, 3)), np.ones(3)],
                             ids=["rectangular", "vector"])
    def test_non_square_factor_refused(self, factor):
        with pytest.raises(StructuralError, match="square"):
            symmetrize_factor(factor)

    def test_rejects_no_terms(self):
        with pytest.raises(StructuralError, match="at least one"):
            KroneckerSumOperator([])

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(StructuralError):
            KroneckerSumOperator([[np.eye(2), np.eye(3)], [np.eye(3), np.eye(3)]])

    def test_rejects_terms_with_different_factor_counts(self):
        for terms in ([[np.eye(3), np.eye(3)], [np.eye(3)] * 3],
                      [[np.eye(3)] * 3, [np.eye(3), np.eye(3)]]):
            with pytest.raises(StructuralError, match="factor sizes"):
                KroneckerSumOperator(terms)

    def test_rejects_single_dimension(self):
        with pytest.raises(StructuralError):
            KroneckerSumOperator([[np.eye(3)]])

    def test_metric_rejects_indefinite_mass(self):
        with pytest.raises(StructuralError):
            MetricSet([np.diag([1.0, -1.0]), np.eye(2)])

    def test_metric_rejects_mass_below_pivot_tolerance(self):
        """The mass test is the solver's: a mass that factors but whose
        smallest pivot fails ``cholesky_spd`` is refused."""
        mass = np.diag([1.0, 1.0, 1.0, 1e-13])
        np.linalg.cholesky(mass)
        with pytest.raises(StructuralError):
            MetricSet([mass, np.eye(2)])

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

    def test_sum_rejects_factor_count(self):
        with pytest.raises(StructuralError, match="factor count"):
            TensorSum((3, 3), [1.0], [np.ones((3, 1))])

    @pytest.mark.parametrize("factors", [
        [np.ones((3, 1)), np.ones((2, 1))],
        [np.ones((3, 2)), np.ones((3, 2))],
    ], ids=["size", "term_count"])
    def test_sum_rejects_block_shape(self, factors):
        with pytest.raises(StructuralError, match="block shape"):
            TensorSum((3, 3), [1.0], factors)

    @pytest.mark.parametrize("sizes", [(3, 4), (3, 3, 2)],
                             ids=["other_size", "extra_axis"])
    def test_plus_rejects_another_shape(self, sizes):
        """(3, 3, 2) would otherwise pair the first two axes and drop the
        third."""
        with pytest.raises(StructuralError, match="different shapes"):
            random_tensor_sum((3, 3), 1).plus(random_tensor_sum(sizes, 1))

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

    def test_zero_tensor_norms(self, monkeypatch):
        sizes = (3, 3)
        m = MetricSet.identity(sizes)
        op = random_operator(sizes, 2, np.random.default_rng(4))
        z = TensorSum(sizes)
        assert h_norm(z, m) == 0.0
        assert eig_residual(op, m, z, 1.5) == 0.0
        monkeypatch.setattr(tensor_core, "DENSE_NORM_LIMIT", 0)
        assert eig_residual(op, m, z, 1.5) == 0.0

    @pytest.mark.parametrize("sizes", [(3, 4, 2), (2, 3, 2, 3)],
                             ids=["d3", "d4"])
    def test_zero_sum_at_higher_order(self, sizes):
        """The empty sum assembles to zeros, and its forms with any sum are
        zero, at d >= 3 as at d = 2."""
        rng = np.random.default_rng(8)
        op = random_operator(sizes, 2, rng)
        z, u = TensorSum(sizes), random_tensor_sum(sizes, 2, rng)
        assert np.array_equal(z.to_dense(), np.zeros(np.prod(sizes)))
        assert a_inner(op, z, u) == a_inner(op, u, z) == a_inner(op, z, z) == 0.0

    def test_shape_mismatch_raises(self):
        m = MetricSet.identity((3, 3))
        with pytest.raises(StructuralError):
            a_inner(m, random_tensor_sum((3, 3), 1), random_tensor_sum((3, 4), 1))


class TestOperatorApplication:
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

    def test_factored_residual_matches_dense_branch(self, monkeypatch):
        """Above DENSE_NORM_LIMIT the factored residual agrees with the
        assembled one, taken with the limit raised, to its sqrt(eps) floor."""
        sizes = (17, 17, 17)   # 4,913 entries
        rng = np.random.default_rng(11)
        op = random_operator(sizes, 2, rng)
        m = MetricSet([random_spd(n, rng) for n in sizes])
        u = random_tensor_sum(sizes, 3, rng)
        lam = a_inner(op, u, u) / a_inner(m, u, u)
        factored = eig_residual(op, m, u, lam)
        monkeypatch.setattr(tensor_core, "DENSE_NORM_LIMIT", 17 ** 3)
        dense = eig_residual(op, m, u, lam)
        assert abs(factored - dense) <= 1e-7 * residual_scale(op, m, u, lam)


class TestDirectionReduction:
    def test_reduction_matches_dense_quadratics(self):
        """The contracted data reproduces the dense bilinear forms, and
        ``shifted(sigma, tau)`` the shifted system (A_j + sigma Mj_eff,
        tau m_j - b_j)."""
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
                sigma, tau = 3.0 * rng.standard_normal(2)
                shifted, rhs = dd.shifted(sigma, tau)
                assert np.isclose(s @ shifted @ s,
                                  z @ (a_dense + sigma * m_dense) @ z)
                assert np.isclose(rhs @ s, tau * c_vec @ m_dense @ z
                                  - c_vec @ a_dense @ z)

    def test_zero_frozen_factor_raises(self):
        sizes = (4, 3, 2)
        rng = np.random.default_rng(10)
        op = random_operator(sizes, 2, rng)
        ctx = random_tensor_sum(sizes, 2, rng)
        ws = DirectionWorkspace(op, MetricSet.identity(sizes), ctx)
        frozen = [rng.standard_normal(n) for n in sizes]
        frozen[1] = np.zeros(3)
        ws.reduce(frozen, 1)   # the open slot may hold anything
        for j in (0, 2):
            with pytest.raises(DegenerateDirection, match="dimension 1"):
                ws.reduce(frozen, j)

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


def size(w):
    """sum_i |c_i| prod_j |f_ij|, a bound on |w| free of cancellation."""
    return np.abs(w.coeffs) @ np.prod(
        [np.linalg.norm(f, axis=0) for f in w.factors], axis=0)


def op_size(op):
    """sum_k prod_j ||D^(k,j)||_2, at least ||A||_2."""
    return sum(np.prod([np.linalg.norm(f, 2) for f in term])
               for term in op.terms)


def residual_scale(op, m, u, lam):
    """A bound on ||A u|| + |lam| ||M u|| free of cancellation."""
    return (op_size(op) + abs(lam) * op_size(m)) * size(u)


# per dimension count, the largest size: at most 625 entries, so the
# assembled matrices stay small, all under the dense residual's 4,096
MAX_SIZE = {2: 24, 3: 8, 4: 5}


@st.composite
def dense_cases(draw):
    """A random operator with SPD masses, two sums of its sizes, and
    whether the first is replaced by a sum whose terms cancel."""
    d = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(1, MAX_SIZE[d]), min_size=d,
                                max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = random_operator(sizes, draw(st.integers(1, 3)), rng)
    m = MetricSet([random_spd(n, rng) for n in sizes])
    u = random_tensor_sum(sizes, draw(st.integers(1, 4)), rng)
    v = random_tensor_sum(sizes, draw(st.integers(0, 3)), rng)
    if draw(st.booleans()):
        u = u.plus(u.scaled(-1.0 + 1e-9))
    return op, m, u, v


class TestDenseProperties:
    """Factored operations against the assembled matrices and tensors."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(dense_cases())
    def test_operations_match_assembled(self, case):
        op, m, u, v = case
        A, M = dense_assemble(op, m)
        x, y = u.to_dense(), v.to_dense()
        assert np.abs(u.plus(v).to_dense() - (x + y)).max() <= 1e-15 * (
            size(u) + size(v))
        assert abs(a_inner(op, u, v) - x @ A @ y) <= (
            1e-13 * op_size(op) * size(u) * size(v))
        lam = (x @ A @ x) / (x @ M @ x)   # makes the residual cancel
        want = np.linalg.norm(A @ x - lam * (M @ x))
        bound = 1e-13 * (np.linalg.norm(A @ x) + abs(lam) * np.linalg.norm(M @ x))
        assert abs(eig_residual(op, m, u, lam) - want) <= bound

    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(dense_cases())
    def test_factored_residual_matches_assembled(self, case):
        """The factored branch, forced at every size, measures A x - lam M x
        to its sqrt(eps) floor, on cancelling sums too."""
        op, m, u, _ = case
        A, M = dense_assemble(op, m)
        x = u.to_dense()
        lam = (x @ A @ x) / (x @ M @ x)
        want = np.linalg.norm(A @ x - lam * (M @ x))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_core, "DENSE_NORM_LIMIT", 0)
            got = eig_residual(op, m, u, lam)
        assert abs(got - want) <= 1e-7 * residual_scale(op, m, u, lam)


@st.composite
def reduce_cases(draw):
    """An operator of 1-3 terms at d = 2-4 with SPD masses, a context of
    0-4 terms (the empty one is the initial guess's) and a generator for
    the factors."""
    d = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(1, {2: 6, 3: 4, 4: 3}[d]),
                                min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = random_operator(sizes, draw(st.integers(1, 3)), rng)
    m = MetricSet([random_spd(n, rng) for n in sizes])
    return op, m, random_tensor_sum(sizes, draw(st.integers(0, 4)), rng), rng


class TestReduceProperties:
    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(reduce_cases())
    def test_reused_workspace_matches_assembled(self, case):
        """Two sweeps over every slot of one workspace, each update
        replacing its factor: the contracted forms at a fresh s equal the
        assembled a(z, z), <z, z>, a(context, z) and <context, z>."""
        op, m, ctx, rng = case
        A, M = dense_assemble(op, m)
        c = ctx.to_dense()
        ws = DirectionWorkspace(op, m, ctx)
        factors = [rng.standard_normal(n) for n in op.sizes]
        for _ in range(2):
            for j, nj in enumerate(op.sizes):
                dd = ws.reduce(factors, j)
                factors[j] = rng.standard_normal(nj)
                s, z = factors[j], TensorSum.rank_one(factors)
                x, zz, cz = z.to_dense(), size(z) ** 2, size(ctx) * size(z)
                for got, want, scale in (
                        (s @ dd.A_j @ s, x @ A @ x, op_size(op) * zz),
                        (s @ dd.Mj_eff @ s, x @ M @ x, op_size(m) * zz),
                        (dd.b_j @ s, c @ A @ x, op_size(op) * cz),
                        (dd.m_j @ s, c @ M @ x, op_size(m) * cz)):
                    assert abs(got - want) <= 1e-14 * scale


@st.composite
def gram_cases(draw):
    """An operator of 1-3 terms at d = 3-4 with SPD masses, and a sum of
    1-6 members."""
    d = draw(st.integers(3, 4))
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = random_operator(sizes, draw(st.integers(1, 3)), rng)
    m = MetricSet([random_spd(n, rng) for n in sizes])
    return op, m, random_tensor_sum(sizes, draw(st.integers(1, 6)), rng)


def image_norms(op, m, u):
    """Per member z_a, sum_k prod_j ||D^(k,j) f_aj|| and prod_j ||M_j f_aj||:
    bounds on ||A z_a|| and ||M z_a|| free of cancellation."""
    def norms(term):
        return np.prod([np.linalg.norm(f @ uj, axis=0)
                        for f, uj in zip(term, u.factors)], axis=0)
    return sum(norms(term) for term in op.terms), norms(m.masses)


class TestResidualGrams:
    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(gram_cases())
    def test_grown_grams_match_a_fresh_build(self, case):
        """Grown one member at a time by ``grow_basis``, the residual
        Grams <P z_a, Q z_b> (P, Q in A, M) equal a fresh build to 1e-12 of
        their cancellation-free scale, and the residual read from either
        agrees, on sums of 0-6 members."""
        op, m, u = case
        empty = TensorSum(u.sizes)
        images, grams = tensor_core.residual_grams(op, m, empty)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_core, "DENSE_NORM_LIMIT", 0)
            assert eig_residual(op, m, empty, 1.5, grams) == 0.0
            assert eig_residual(op, m, empty, 1.5) == 0.0
        basis = None
        for n in range(1, u.num_terms + 1):
            head = TensorSum(u.sizes, u.coeffs[:n], [f[:, :n] for f in u.factors])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tensor_core, "DENSE_NORM_LIMIT", 0)
                basis = tensor_core.grow_basis(op, m, head, basis)
            images, grams = basis.images, basis.residual
            fresh_images, fresh = tensor_core.residual_grams(op, m, head)
            assert grams.shape == fresh.shape == (2, 2, n, n)
            assert [y.shape for y in images] == [y.shape for y in fresh_images]
            a, mm = image_norms(op, m, head)
            norms = np.array([a, mm])   # G[p, q, a, b] = <P z_a, Q z_b>
            scale = norms[:, None, :, None] * norms[None, :, None, :]
            assert np.all(np.abs(grams - fresh) <= 1e-12 * scale)
            lam = a_inner(op, head, head) / a_inner(m, head, head)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tensor_core, "DENSE_NORM_LIMIT", 0)
                grown = eig_residual(op, m, head, lam, grams)
                built = eig_residual(op, m, head, lam)
            c = np.abs(head.coeffs)
            assert abs(grown ** 2 - built ** 2) <= 1e-12 * (
                c @ a + abs(lam) * (c @ mm)) ** 2
