"""The matrix-free reference agrees with the package's dense oracle."""

import numpy as np

from greedy_eig.problems import gen_random_kronecker
from greedy_eig.reference_oracle import dense_assemble, dense_reference
from reference import kron_sum_matvec, matrix_free_mu1


def test_matvec_matches_dense_assembly():
    op, m = gen_random_kronecker(3, (4, 5, 3), 2, seed=3)
    a_full, _ = dense_assemble(op, m)
    x = np.random.default_rng(0).standard_normal(a_full.shape[0])
    np.testing.assert_allclose(kron_sum_matvec(op.terms, op.sizes, x),
                               a_full @ x, rtol=1e-12, atol=1e-12)


def test_mu1_matches_dense_reference_at_d3():
    op, m = gen_random_kronecker(3, (16, 16, 16), 3, seed=11)   # 4,096 dims
    ref = dense_reference(op, m)
    mu1 = matrix_free_mu1(op, m)
    assert abs(mu1 - ref.mu1) <= 1e-9 * (1.0 + abs(ref.mu1))
