"""Dense assembly, reference solve, error metrics, derivative checks."""

import numpy as np
import pytest
import scipy.linalg

from greedy_eig import reference_oracle
from greedy_eig.dense_kernels import _openblas_pools
from greedy_eig.errors import KernelFailure, TooLargeForOracle
from greedy_eig.problems import gen_degenerate_lowest, gen_random_kronecker, gen_separable
from greedy_eig.reference_oracle import (
    ORACLE_LIMIT_ENV,
    DenseReference,
    dense_assemble,
    dense_reference,
    error_metrics,
    grad_check_rayleigh,
)
from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
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


def degenerate_mass_problem_3d(mult):
    """d = 3 pencil with random SPD masses whose lowest eigenvalue has the
    given multiplicity: the degenerate d = 2 operator, plus a third dimension
    with a simple lowest level, carried by congruence with each mass's
    Cholesky factor, which keeps the spectrum."""
    op2, _ = gen_degenerate_lowest((5, 5), mult, seed=3)
    n3 = 4
    third = np.diag([0.5, 2.0, 3.5, 5.0])
    terms = [[*term, np.eye(n3)] for term in op2.terms]
    terms.append([np.eye(5), np.eye(5), third])
    rng = np.random.default_rng(24)
    masses = [random_spd(n, rng) for n in (5, 5, n3)]
    chols = [np.linalg.cholesky(mm) for mm in masses]
    op = KroneckerSumOperator([[c @ f @ c.T for c, f in zip(chols, term)]
                               for term in terms])
    return op, MetricSet(masses)


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

    def test_random_mass_three_dims(self, subset_sizes):
        """d = 3 exercises the middle axis of the back-mapping."""
        op, _ = gen_random_kronecker(3, (5, 4, 6), 3, seed=21)
        rng = np.random.default_rng(22)
        ref = self.assert_matches_full(
            op, MetricSet([random_spd(n, rng) for n in (5, 4, 6)]))
        assert ref.eigenspace.shape[1] == 1
        assert subset_sizes == [2]

    @pytest.mark.parametrize("mult, sizes", [(2, [2, 4]), (3, [2, 4])])
    def test_degenerate_random_mass_three_dims(self, subset_sizes, mult,
                                               sizes):
        op, m = degenerate_mass_problem_3d(mult)
        ref = self.assert_matches_full(op, m)
        assert ref.eigenspace.shape[1] == mult
        assert subset_sizes == sizes

    def test_identity_mass_solves_the_operator_itself(self, monkeypatch):
        seen = []
        eigh = scipy.linalg.eigh

        def spy(c, **kwargs):
            seen.append(c.copy())
            return eigh(c, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        op, m = gen_random_kronecker(3, (4, 3, 5), 2, seed=23)
        ref = dense_reference(op, m)
        assert len(seen) == 1 and np.array_equal(seen[0], ref.operator)

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
        u = TensorSum((5, 5), np.ones(5), (uu * ss, vv.T))
        errs = error_metrics([u], [ref.mu1], ref, 0.0)
        assert errs["err_lambda"][0] <= 1e-10
        assert errs["err_vec_h"][0] <= 1e-10
        assert errs["err_vec_a"][0] <= 1e-7

    def test_orthogonal_vector_has_unit_error(self):
        op, m = gen_random_kronecker(2, (5, 5), 2, seed=6)
        ref = dense_reference(op, m)
        # build a unit vector orthogonal to the eigenspace
        rng = np.random.default_rng(1)
        u = normalize(TensorSum.rank_one(
            [rng.standard_normal(5), rng.standard_normal(5)]), m)
        uv = u.to_dense()
        p = ref.eigenspace @ (ref.eigenspace.T @ ref.mass @ uv)
        orth = uv - p
        orth /= np.sqrt(orth @ ref.mass @ orth)
        uu, ss, vv = np.linalg.svd(orth.reshape(5, 5))
        u_orth = TensorSum((5, 5), np.ones(5), (uu * ss, vv.T))
        errs = error_metrics([u_orth], [0.0], ref, 0.0)
        assert errs["err_vec_h"][0] == pytest.approx(1.0, abs=1e-9)


    def test_shifted_norm_with_mass_matches_dense(self):
        op, m = random_mass_problem()
        nu = 2.5
        ref = dense_reference(op, m)
        a, mm = dense_assemble(op, m)
        vals, vecs = scipy.linalg.eigh(a, mm)
        rng = np.random.default_rng(12)
        first = TensorSum.rank_one([rng.standard_normal(9), rng.standard_normal(7)])
        second = TensorSum.rank_one([rng.standard_normal(9), rng.standard_normal(7)])
        u = normalize(first.plus(second.scaled(0.3)), m)
        uv = u.to_dense()
        w = vecs[:, 0] * np.sign(vecs[:, 0] @ mm @ uv)
        outside = uv - w * (w @ mm @ uv)
        shifted = a + nu * mm
        want_a = min(np.sqrt((uv - s * w) @ shifted @ (uv - s * w))
                     for s in (1.0, -1.0))
        errs = error_metrics([u], [1.7], ref, nu)
        assert errs["err_lambda"][0] == pytest.approx(abs(1.7 - vals[0]),
                                                      rel=1e-12)
        assert errs["err_vec_h"][0] == pytest.approx(
            np.sqrt(outside @ mm @ outside), rel=1e-12)
        assert errs["err_vec_a"][0] == pytest.approx(want_a, rel=1e-12)


def block_mass_problem():
    """Pencil D1 x M2 + M1 x D2 with random SPD masses, whose first-dimension
    factors are block diagonal (2 + 3) with the lowest level in the first
    block.  Returns the operator, the metric, a reference built from the
    factor pencils and its eigenvector as a rank-one element, exactly zero
    on the second block."""
    rng = np.random.default_rng(31)
    blocks = [random_spd(2, rng), random_spd(3, rng)]
    m1 = scipy.linalg.block_diag(*blocks)
    d1 = scipy.linalg.block_diag(random_spd(2, rng),
                                 random_spd(3, rng) + 40.0 * blocks[1])
    m2, d2 = random_spd(4, rng), random_spd(4, rng)
    op = KroneckerSumOperator([[d1, m2], [m1, d2]])
    m = MetricSet([m1, m2])
    l1, x1 = scipy.linalg.eigh(d1[:2, :2], m1[:2, :2])
    l2, x2 = scipy.linalg.eigh(d2, m2)
    eig = TensorSum.rank_one([np.r_[x1[:, 0], np.zeros(3)], x2[:, 0]])
    a, mm = dense_assemble(op, m)
    vals = scipy.linalg.eigvalsh(a, mm)
    basis = eig.to_dense()[:, None]
    ref = DenseReference(l1[0] + l2[0], basis, vals[1] - vals[0], a, mm)
    return op, m, ref, eig


class TestBatchedErrorMetrics:
    def test_reference_matches_dense_reference(self):
        op, m, ref, _ = block_mass_problem()
        dense = dense_reference(op, m)
        assert dense.mu1 == pytest.approx(ref.mu1, rel=1e-12)
        p = ref.eigenspace @ ref.eigenspace.T @ ref.mass
        q = dense.eigenspace @ dense.eigenspace.T @ dense.mass
        assert np.abs(p - q).max() <= 1e-10

    def test_rows_match_per_row_dense_computation(self):
        _, m, ref, eig = block_mass_problem()
        nu = 2.5
        rng = np.random.default_rng(32)

        def rank_one(first):
            return TensorSum.rank_one([first, rng.standard_normal(4)])

        # one run: iterates ever closer to the eigenvector, then one
        # supported on the second block of dimension 1, M-orthogonal to
        # the eigenspace with no component in it at all
        iterates = [normalize(
            eig.plus(rank_one(rng.standard_normal(5)).scaled(eps)), m)
            for eps in (10.0, 1.0, 0.1, 1e-2)]
        iterates.append(normalize(
            rank_one(np.r_[0.0, 0.0, rng.standard_normal(3)]), m))
        lams = [9.0, 5.0, 4.0, 3.5, 7.0]
        errs = error_metrics(iterates, lams, ref, nu)

        a, mm = ref.operator, ref.mass
        w = ref.eigenspace[:, 0]
        for i, (u, lam) in enumerate(zip(iterates, lams)):
            uv = u.to_dense()
            c = w @ mm @ uv
            outside = uv - w * c
            assert errs["err_lambda"][i] == pytest.approx(abs(lam - ref.mu1),
                                                          rel=1e-12)
            assert errs["err_vec_h"][i] == pytest.approx(
                np.sqrt(outside @ mm @ outside), rel=1e-12)
            if i == len(iterates) - 1:
                assert c == 0.0 and errs["err_vec_a"][i] == np.inf
                continue
            want_a = min(np.sqrt(e @ a @ e + nu * (e @ mm @ e))
                         for e in (uv - w, uv + w))
            assert errs["err_vec_a"][i] == pytest.approx(want_a, rel=1e-12)

    def test_empty_run(self):
        _, _, ref, _ = block_mass_problem()
        errs = error_metrics([], [], ref, 0.0)
        assert all(v.shape == (0,) for v in errs.values())

    def test_lams_must_match_iterates(self):
        _, m, ref, _ = block_mass_problem()
        u = normalize(TensorSum.rank_one([np.ones(5), np.ones(4)]), m)
        with pytest.raises(ValueError):
            error_metrics([u, u], [1.0], ref, 0.0)


def _thread_counts():
    return [get() for get, _ in _openblas_pools()]


@pytest.mark.skipif(not _openblas_pools(),
                    reason="no bundled OpenBLAS to set the thread count of")
class TestBlasThreads:
    """Only the dense eigensolve runs at the caller's thread counts."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        """Start from two threads per pool so a restore is observable."""
        saved = _thread_counts()
        for _, set_ in _openblas_pools():
            set_(2)
        yield
        for (_, set_), count in zip(_openblas_pools(), saved):
            set_(count)

    @staticmethod
    def spy(monkeypatch, owner, name, seen):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.append(_thread_counts())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_only_the_eigensolve_is_threaded(self, monkeypatch):
        solve, rest = [], []
        self.spy(monkeypatch, scipy.linalg, "eigh", solve)
        self.spy(monkeypatch, reference_oracle, "dense_assemble", rest)
        self.spy(monkeypatch, scipy.linalg, "cholesky", rest)
        self.spy(monkeypatch, scipy.linalg, "solve_triangular", rest)
        op, m = random_mass_problem()
        dense_reference(op, m)
        pools = len(_openblas_pools())
        assert solve == [[2] * pools]
        # assembly, two factor Choleskys, 3 terms x 2 factors x 2 solves
        # to whiten and one solve per axis to map back
        assert rest == [[1] * pools] * (1 + 2 + 12 + 2)
        assert _thread_counts() == [2] * pools

    def test_error_metrics_runs_at_one_thread(self, monkeypatch):
        op, m = random_mass_problem()
        ref = dense_reference(op, m)
        seen = []
        self.spy(monkeypatch, TensorSum, "to_dense", seen)
        u = normalize(TensorSum.rank_one([np.ones(9), np.ones(7)]), m)
        error_metrics([u, u], [1.0, 2.0], ref, 0.0)
        pools = len(_openblas_pools())
        assert seen == [[1] * pools] * 2
        assert _thread_counts() == [2] * pools

    def test_counts_restored_when_the_oracle_raises(self, monkeypatch):
        op, m = random_mass_problem()
        ref = dense_reference(op, m)
        with pytest.raises(ValueError):
            error_metrics([], [1.0], ref, 0.0)
        assert _thread_counts() == [2] * len(_openblas_pools())

        def failing_eigh(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
        with pytest.raises(KernelFailure):
            dense_reference(op, m)
        assert _thread_counts() == [2] * len(_openblas_pools())
        monkeypatch.setenv(ORACLE_LIMIT_ENV, "10")
        with pytest.raises(TooLargeForOracle):
            dense_reference(op, m)
        assert _thread_counts() == [2] * len(_openblas_pools())


class TestGradCheck:
    def test_random_points_match_finite_differences(self):
        op, m = gen_random_kronecker(2, (6, 6), 2, seed=7)
        rng = np.random.default_rng(2)
        for trial in range(3):
            v = normalize(TensorSum.rank_one(
                [rng.standard_normal(6), rng.standard_normal(6)]), m)
            v = v.scaled(rng.uniform(0.6, 1.4))
            assert grad_check_rayleigh(op, m, v, seed=trial) <= 1e-6

    def test_eigenvector_is_critical_point(self):
        op = gen_separable([np.diag([1.0, 3.0]), np.diag([1.0, 3.0])])
        m = MetricSet.identity((2, 2))
        v = TensorSum.rank_one([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        jv = a_inner(op, v, v) / h_inner(v, v, m)
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = TensorSum.rank_one([rng.standard_normal(2), rng.standard_normal(2)])
            deriv = 2.0 * (a_inner(op, v, w) - jv * h_inner(v, w, m))
            assert abs(deriv) <= 1e-10

    def test_radial_direction_annihilated(self):
        """Scale invariance of the quotient forces J'(v)v = 0."""
        op, m = gen_random_kronecker(2, (5, 5), 2, seed=8)
        rng = np.random.default_rng(4)
        v = normalize(TensorSum.rank_one(
            [rng.standard_normal(5), rng.standard_normal(5)]), m)
        jv = a_inner(op, v, v) / h_inner(v, v, m)
        deriv = 2.0 * (a_inner(op, v, v) - jv * h_inner(v, v, m))
        assert abs(deriv) <= 1e-10

    def test_norm_window_enforced(self):
        op, m = gen_random_kronecker(2, (4, 4), 1, seed=9)
        v = TensorSum.rank_one([np.ones(4), np.ones(4)])
        with pytest.raises(ValueError):
            grad_check_rayleigh(op, m, v.scaled(10.0))
