"""Dense kernel primitives against direct numpy checks."""

import numpy as np
import pytest
import scipy.linalg

from greedy_eig import dense_kernels
from greedy_eig.dense_kernels import (
    cholesky_solve,
    cholesky_spd,
    gen_sym_eig_smallest,
    spd_factor_solve,
    spd_solve,
    sym_eig_full,
    sym_indefinite_solve,
    tri_solve,
)
from greedy_eig.errors import IllConditionedGram, KernelFailure, SingularSystem

RNG = np.random.default_rng(11)


def spd(n, rng=RNG):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


class TestSymEig:
    def test_reconstruction(self):
        s = spd(6)
        dec = sym_eig_full(s)
        assert np.allclose(dec.vectors @ np.diag(dec.values) @ dec.vectors.T, s)

    def test_ascending(self):
        dec = sym_eig_full(spd(8))
        assert np.all(np.diff(dec.values) >= 0)

    @pytest.mark.parametrize("n", [1, 2, 15, 52])
    def test_smallest_pair_only(self, n):
        """count=1 computes the smallest pair of the full decomposition and
        no other; 52 is the largest bordered order on the acceptance corpus,
        at N = 51."""
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        s = g + g.T
        dec = sym_eig_full(s, count=1)
        vals, vecs = scipy.linalg.eigh(s)
        assert dec.values.shape == (1,) and dec.vectors.shape == (n, 1)
        assert abs(dec.values[0] - vals[0]) <= 1e-12 * np.linalg.norm(s, 2)
        y, ref = dec.vectors[:, 0], vecs[:, 0]
        assert np.abs(y * np.sign(y @ ref) - ref).max() <= 1e-9


class TestCholesky:
    def test_factor(self):
        s = spd(5)
        L = cholesky_spd(s)
        assert np.allclose(L @ L.T, s)
        assert np.allclose(L, np.tril(L))

    def test_indefinite_raises(self):
        with pytest.raises(IllConditionedGram):
            cholesky_spd(np.diag([1.0, -1.0]))

    def test_near_singular_raises(self):
        with pytest.raises(IllConditionedGram):
            cholesky_spd(np.diag([1.0, 1e-16]))

    def test_zero_raises(self):
        with pytest.raises(IllConditionedGram):
            cholesky_spd(np.zeros((3, 3)))

    def test_failing_pivot_anywhere_raises(self):
        duplicated = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cases = [
            np.zeros((3, 3)),
            np.diag([-1.0, 1.0, 1.0]),
            np.diag([1.0, 1.0, -1.0]),        # potrf stops at the last pivot
            np.diag([1.0, 1e-16, 1.0]),       # potrf completes
            np.diag([1.0, 1e-14, 1.0, -1.0]),  # small before potrf stops
            duplicated,                       # Schur complement 0
        ]
        for S in cases:
            with pytest.raises(IllConditionedGram):
                cholesky_spd(S)


# TestCholesky.test_failing_pivot_anywhere_raises's matrices, for the
# kernels that take the pivot test from their own driver's factor
FAILING_PIVOT_CASES = [
    np.zeros((3, 3)),
    np.diag([-1.0, 1.0, 1.0]),
    np.diag([1.0, 1.0, -1.0]),
    np.diag([1.0, 1e-16, 1.0]),
    np.diag([1.0, 1e-14, 1.0, -1.0]),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
]


class TestPivotParity:
    """spd_solve (dposv) and gen_sym_eig_smallest (dsygvx) refuse every
    matrix that cholesky_spd refuses."""

    @pytest.mark.parametrize("case", range(len(FAILING_PIVOT_CASES)))
    def test_spd_solve_raises(self, case):
        S = FAILING_PIVOT_CASES[case]
        with pytest.raises(IllConditionedGram):
            spd_solve(S, np.ones(len(S)))

    @pytest.mark.parametrize("case", range(len(FAILING_PIVOT_CASES)))
    def test_gen_sym_eig_smallest_raises(self, case):
        B = FAILING_PIVOT_CASES[case]
        with pytest.raises(IllConditionedGram):
            gen_sym_eig_smallest(np.eye(len(B)), B)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_untouched(self, order):
        """The drivers overwrite copies only."""
        a = np.array(spd(5) - 3 * np.eye(5), order=order)
        b = np.array(spd(5), order=order)
        a0, b0 = a.copy(), b.copy()
        gen_sym_eig_smallest(a, b)
        spd_solve(b, np.ones(5))
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


class TestFactorSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factor_solves_further_right_hand_sides(self, order):
        """spd_factor_solve's factor is cholesky_spd's, and cholesky_solve
        on it solves S x = rhs for another rhs."""
        s = np.array(spd(9), order=order)
        rhs, other = RNG.standard_normal(9), RNG.standard_normal(9)
        x, factor = spd_factor_solve(s, rhs)
        assert np.allclose(np.tril(factor), cholesky_spd(s))
        assert np.allclose(s @ x, rhs)
        assert np.allclose(s @ cholesky_solve(factor, other), other)


class TestGeneralizedEig:
    def test_matches_scipy(self):
        import scipy.linalg

        a = spd(7) - 3 * np.eye(7)
        b = spd(7)
        tau, c = gen_sym_eig_smallest(a, b)
        ref = scipy.linalg.eigh(a, b, eigvals_only=True)
        assert np.isclose(tau, ref[0])
        assert np.allclose(a @ c, tau * b @ c, atol=1e-8)
        assert np.isclose(c @ b @ c, 1.0)

    def test_identity_metric(self):
        a = np.diag([3.0, -1.0, 5.0])
        tau, c = gen_sym_eig_smallest(a, np.eye(3))
        assert np.isclose(tau, -1.0)
        assert np.isclose(abs(c[1]), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 15, 52, 101])
    def test_matches_scipy_subset(self, n):
        """The one computed pair is scipy's smallest generalized pair; the
        orders reach the Galerkin pencils of a 100-iteration run."""
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        a, b = g + g.T, spd(n, rng)
        tau, c = gen_sym_eig_smallest(a, b)
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[0, 0])
        scale = np.abs(scipy.linalg.eigh(a, b, eigvals_only=True)).max()
        assert abs(tau - vals[0]) <= 1e-12 * scale
        assert c @ b @ c == pytest.approx(1.0, rel=1e-13)
        # the B-normalized vectors agree up to sign
        ref = vecs[:, 0] * np.sign(vecs[:, 0] @ b @ c)
        assert np.abs(c - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_repeated_smallest_eigenvalue(self):
        """On a double smallest eigenvalue any vector of its eigenspace is
        right: only the value and the B-norm are compared."""
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        a = (q * np.array([-2.0, -2.0, *range(7)])) @ q.T
        b = spd(9, rng)
        L = np.linalg.cholesky(b)
        a = L @ a @ L.T   # the pencil (a, b) has the spectrum of the middle
        tau, c = gen_sym_eig_smallest(a, b)
        vals = scipy.linalg.eigh(a, b, subset_by_index=[0, 1],
                                 eigvals_only=True)
        assert vals[1] - vals[0] < 1e-10
        assert tau == pytest.approx(-2.0, abs=1e-12)
        assert c @ b @ c == pytest.approx(1.0, rel=1e-13)
        assert np.linalg.norm(a @ c - tau * b @ c) <= 1e-10 * np.linalg.norm(a)


class TestSolvers:
    def test_spd_solve(self):
        s = spd(6)
        x = RNG.standard_normal(6)
        assert np.allclose(spd_solve(s, s @ x), x)

    def test_indefinite_solve(self):
        base = spd(6)
        shift = 0.5 * (np.linalg.eigvalsh(base)[0] + np.linalg.eigvalsh(base)[-1])
        s = base - shift * np.eye(6)  # indefinite by construction
        assert np.linalg.eigvalsh(s)[0] < 0 < np.linalg.eigvalsh(s)[-1]
        x = RNG.standard_normal(6)
        assert np.allclose(sym_indefinite_solve(s, s @ x), x)

    @pytest.mark.filterwarnings("error")
    def test_singular_raises(self):
        s = np.outer(np.ones(4), np.ones(4))
        with pytest.raises(SingularSystem):
            sym_indefinite_solve(s, np.ones(4))


def failing(driver):
    """``driver`` with its LAPACK ``info``, the last output, set to 1."""
    def call(*args, **kwargs):
        return (*driver(*args, **kwargs)[:-1], 1)
    return call


class TestKernelFailure:
    """A LAPACK driver that returns info != 0 for a reason other than a
    failed pivot raises KernelFailure."""

    @pytest.mark.parametrize("name, solve", [
        ("_trtrs", lambda s: tri_solve(cholesky_spd(s), np.ones(len(s)))),
        ("_syevr", lambda s: sym_eig_full(s, count=1)),
        ("_sygvx", lambda s: gen_sym_eig_smallest(s, np.eye(len(s)))),
    ], ids=["tri_solve", "sym_eig_full", "gen_sym_eig_smallest"])
    def test_nonzero_info_raises(self, monkeypatch, name, solve):
        s = spd(5)
        solve(s)
        monkeypatch.setattr(dense_kernels, name,
                            failing(getattr(dense_kernels, name)))
        with pytest.raises(KernelFailure, match=r"info=1\)"):
            solve(s)
