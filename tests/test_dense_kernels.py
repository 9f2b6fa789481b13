"""Dense kernel primitives against direct numpy checks."""

import numpy as np
import pytest
import scipy.linalg

from greedy_eig.dense_kernels import (
    cholesky_spd,
    gen_sym_eig_smallest,
    spd_solve,
    sym_eig_full,
    sym_indefinite_solve,
)
from greedy_eig.errors import IllConditionedGram, SingularSystem

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
