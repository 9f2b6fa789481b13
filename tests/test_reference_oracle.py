"""Dense assembly, reference solve, error metrics, derivative checks."""

import numpy as np
import pytest
import scipy.linalg

from greedy_eig.errors import TooLargeForOracle
from greedy_eig.problems import gen_degenerate_lowest, gen_random_kronecker, gen_separable
from greedy_eig.reference_oracle import (
    ORACLE_LIMIT_ENV,
    dense_assemble,
    dense_reference,
    error_metrics,
    grad_check_rayleigh,
)
from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    RankOne,
    TensorSum,
    a_inner,
    h_inner,
    normalize,
)


class TestDenseAssemble:
    def test_identity(self):
        op = KroneckerSumOperator([[np.eye(3), np.eye(4)]])
        m = MetricSet.identity((3, 4))
        a, mm = dense_assemble(op, m)
        assert np.array_equal(a, np.eye(12))
        assert np.array_equal(mm, np.eye(12))

    def test_kronecker_sum_spectrum(self):
        """Eigenvalues of D x I + I x D are all pairwise sums."""
        d = np.diag([1.0, 5.0, 9.0])
        op = KroneckerSumOperator([[d, np.eye(3)], [np.eye(3), d]])
        a, _ = dense_assemble(op, MetricSet.identity((3, 3)))
        got = np.sort(np.linalg.eigvalsh(a))
        want = np.sort([x + y for x in [1, 5, 9] for y in [1, 5, 9]])
        assert np.allclose(got, want)

    def test_matches_term_expansion(self):
        op, m = gen_random_kronecker(2, (8, 8), 2, seed=13)
        a, _ = dense_assemble(op, m)
        ref = sum(np.kron(t[0], t[1]) for t in op.terms)
        assert np.allclose(a, ref)

    def test_size_guard(self):
        op = KroneckerSumOperator([[np.eye(80), np.eye(80)]])
        with pytest.raises(TooLargeForOracle):
            dense_assemble(op, MetricSet.identity((80, 80)))

    def test_size_guard_override(self, monkeypatch):
        monkeypatch.setenv(ORACLE_LIMIT_ENV, "10000")
        op = KroneckerSumOperator([[np.eye(80), np.eye(80)]])
        a, _ = dense_assemble(op, MetricSet.identity((80, 80)))
        assert a.shape == (6400, 6400)


class TestDenseReference:
    def test_separable_diag(self):
        op = gen_separable([np.diag([1.0, 2.0]), np.diag([1.0, 2.0])])
        ref = dense_reference(op, MetricSet.identity((2, 2)))
        assert ref.mu1 == pytest.approx(2.0)
        assert ref.eigenspace.shape[1] == 1

    def test_degenerate_multiplicity(self):
        op, m = gen_degenerate_lowest((6, 6), 2, seed=3)
        ref = dense_reference(op, m)
        assert ref.eigenspace.shape[1] == 2

    def test_self_consistency(self):
        """Spectral reassembly reproduces the dense operator."""
        op, m = gen_random_kronecker(2, (6, 6), 2, seed=4)
        a, mm = dense_assemble(op, m)
        vals, vecs = scipy.linalg.eigh(a, mm)
        back = mm @ vecs @ np.diag(vals) @ vecs.T @ mm
        assert np.allclose(back, a, rtol=1e-9, atol=1e-9)

    def test_basis_orthonormal(self):
        op, m = gen_degenerate_lowest((6, 6), 2, seed=5)
        ref = dense_reference(op, m)
        g = ref.eigenspace.T @ ref.mass @ ref.eigenspace
        assert np.allclose(g, np.eye(2), atol=1e-10)


def random_spd(n, rng):
    x = rng.standard_normal((n, n))
    return x @ x.T + n * np.eye(n)


def random_mass_problem():
    op, _ = gen_random_kronecker(2, (9, 7), 3, seed=5)
    rng = np.random.default_rng(11)
    return op, MetricSet([random_spd(9, rng), random_spd(7, rng)])


@pytest.fixture
def subset_sizes(monkeypatch):
    """Record the number of eigenpairs each oracle solve asks for."""
    sizes = []
    eigh = scipy.linalg.eigh

    def spy(*args, **kwargs):
        if "subset_by_index" in kwargs:
            sizes.append(kwargs["subset_by_index"][1] + 1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return sizes


class TestSubsetOracle:
    """The lowest-eigenpair oracle against a full generalized eigensolve."""

    @staticmethod
    def assert_matches_full(op, m):
        a, mm = dense_assemble(op, m)
        vals, vecs = scipy.linalg.eigh(a, mm)
        ref = dense_reference(op, m)
        mult = ref.eigenspace.shape[1]
        assert ref.mu1 == pytest.approx(vals[0], rel=1e-12)
        assert np.all(vals[:mult] - vals[0] <= 1e-8 * (1 + abs(vals[0])))
        full = vecs[:, :mult]
        e = ref.eigenspace
        assert np.abs(e @ e.T @ mm - full @ full.T @ mm).max() <= 1e-10
        if mult < len(vals):
            assert vals[mult] - vals[0] > 1e-8 * (1 + abs(vals[0]))
            assert ref.gap == pytest.approx(vals[mult] - vals[0], rel=1e-10)
        else:
            assert ref.gap == np.inf
        return ref

    def test_random_mass(self, subset_sizes):
        ref = self.assert_matches_full(*random_mass_problem())
        assert ref.eigenspace.shape[1] == 1
        assert subset_sizes == [2]

    @pytest.mark.parametrize("mult, sizes", [(3, [2, 4]), (4, [2, 4, 8])])
    def test_subset_grows_with_multiplicity(self, subset_sizes, mult, sizes):
        op, m = gen_degenerate_lowest((6, 6), mult, seed=3)
        ref = self.assert_matches_full(op, m)
        assert ref.eigenspace.shape[1] == mult
        assert subset_sizes == sizes

    def test_all_equal_spectrum(self, subset_sizes):
        op = KroneckerSumOperator([[np.eye(2), np.eye(2)]])
        ref = self.assert_matches_full(op, MetricSet.identity((2, 2)))
        assert ref.mu1 == pytest.approx(1.0)
        assert ref.eigenspace.shape == (4, 4)
        assert ref.gap == np.inf
        assert subset_sizes == [2, 4]


class TestErrorMetrics:
    def test_exact_eigenvector_gives_zeros(self):
        op, m = gen_random_kronecker(2, (5, 5), 2, seed=6)
        ref = dense_reference(op, m)
        # reconstruct the eigenvector as a TensorSum via rank-one terms
        vec = ref.eigenspace[:, 0].reshape(5, 5)
        uu, ss, vv = np.linalg.svd(vec)
        terms = [RankOne([uu[:, i] * ss[i], vv[i, :]]) for i in range(5)]
        u = TensorSum.combine(np.ones(5), terms)
        errs = error_metrics(u, ref.mu1, ref, 0.0)
        assert errs["err_lambda"] <= 1e-10
        assert errs["err_vec_h"] <= 1e-10
        assert errs["err_vec_a"] <= 1e-7

    def test_orthogonal_vector_has_unit_error(self):
        op, m = gen_random_kronecker(2, (5, 5), 2, seed=6)
        ref = dense_reference(op, m)
        # build a unit vector orthogonal to the eigenspace
        rng = np.random.default_rng(1)
        u = normalize(TensorSum.from_rank_one(
            RankOne([rng.standard_normal(5), rng.standard_normal(5)])), m)
        uv = u.to_dense()
        p = ref.eigenspace @ (ref.eigenspace.T @ ref.mass @ uv)
        orth = uv - p
        orth /= np.sqrt(orth @ ref.mass @ orth)
        uu, ss, vv = np.linalg.svd(orth.reshape(5, 5))
        terms = [RankOne([uu[:, i] * ss[i], vv[i, :]]) for i in range(5)]
        u_orth = TensorSum.combine(np.ones(5), terms)
        errs = error_metrics(u_orth, 0.0, ref, 0.0)
        assert errs["err_vec_h"] == pytest.approx(1.0, abs=1e-9)


    def test_shifted_norm_with_mass_matches_dense(self):
        op, m = random_mass_problem()
        nu = 2.5
        ref = dense_reference(op, m)
        a, mm = dense_assemble(op, m)
        vals, vecs = scipy.linalg.eigh(a, mm)
        rng = np.random.default_rng(12)
        u = normalize(TensorSum.combine(np.array([1.0, 0.3]), [
            RankOne([rng.standard_normal(9), rng.standard_normal(7)])
            for _ in range(2)]), m)
        uv = u.to_dense()
        w = vecs[:, 0] * np.sign(vecs[:, 0] @ mm @ uv)
        outside = uv - w * (w @ mm @ uv)
        shifted = a + nu * mm
        want_a = min(np.sqrt((uv - s * w) @ shifted @ (uv - s * w))
                     for s in (1.0, -1.0))
        errs = error_metrics(u, 1.7, ref, nu)
        assert errs["err_lambda"] == pytest.approx(abs(1.7 - vals[0]),
                                                   rel=1e-12)
        assert errs["err_vec_h"] == pytest.approx(
            np.sqrt(outside @ mm @ outside), rel=1e-12)
        assert errs["err_vec_a"] == pytest.approx(want_a, rel=1e-12)


class TestGradCheck:
    def test_random_points_match_finite_differences(self):
        op, m = gen_random_kronecker(2, (6, 6), 2, seed=7)
        rng = np.random.default_rng(2)
        for trial in range(3):
            v = normalize(TensorSum.from_rank_one(
                RankOne([rng.standard_normal(6), rng.standard_normal(6)])), m)
            v = v.scaled(rng.uniform(0.6, 1.4))
            assert grad_check_rayleigh(op, m, v, seed=trial) <= 1e-6

    def test_eigenvector_is_critical_point(self):
        op = gen_separable([np.diag([1.0, 3.0]), np.diag([1.0, 3.0])])
        m = MetricSet.identity((2, 2))
        v = TensorSum.from_rank_one(RankOne([np.array([1.0, 0.0]),
                                             np.array([1.0, 0.0])]))
        jv = a_inner(op, v, v) / h_inner(v, v, m)
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = TensorSum.from_rank_one(
                RankOne([rng.standard_normal(2), rng.standard_normal(2)]))
            deriv = 2.0 * (a_inner(op, v, w) - jv * h_inner(v, w, m))
            assert abs(deriv) <= 1e-10

    def test_radial_direction_annihilated(self):
        """Scale invariance of the quotient forces J'(v)v = 0."""
        op, m = gen_random_kronecker(2, (5, 5), 2, seed=8)
        rng = np.random.default_rng(4)
        v = normalize(TensorSum.from_rank_one(
            RankOne([rng.standard_normal(5), rng.standard_normal(5)])), m)
        jv = a_inner(op, v, v) / h_inner(v, v, m)
        deriv = 2.0 * (a_inner(op, v, v) - jv * h_inner(v, v, m))
        assert abs(deriv) <= 1e-10

    def test_norm_window_enforced(self):
        op, m = gen_random_kronecker(2, (4, 4), 1, seed=9)
        v = TensorSum.from_rank_one(RankOne([np.ones(4), np.ones(4)]))
        with pytest.raises(ValueError):
            grad_check_rayleigh(op, m, v.scaled(10.0))
