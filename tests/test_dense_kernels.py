"""Dense kernel primitives against direct numpy checks."""

import numpy as np
import pytest

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

    def test_reports_first_failing_pivot(self):
        duplicated = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cases = [
            (np.zeros((3, 3)), 0),
            (np.diag([-1.0, 1.0, 1.0]), 0),
            (np.diag([1.0, 1.0, -1.0]), 2),       # potrf stops here
            (np.diag([1.0, 1e-16, 1.0]), 1),      # potrf completes
            (np.diag([1.0, 1e-14, 1.0, -1.0]), 1),  # before potrf stops at 3
            (duplicated, 1),                      # Schur complement 0
        ]
        for S, pivot in cases:
            with pytest.raises(IllConditionedGram) as info:
                cholesky_spd(S)
            assert info.value.pivot == pivot


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
