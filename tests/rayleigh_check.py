"""Rayleigh-quotient helpers shared by the test modules: the quotient, the
metric normalization, and a finite-difference check of the derivative."""

import numpy as np

from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    h_norm,
)


def rayleigh(op: KroneckerSumOperator, m: MetricSet, u: TensorSum) -> float:
    """The Rayleigh quotient a(u, u) / <u, u>."""
    return a_inner(op, u, u) / a_inner(m, u, u)


def normalize(u: TensorSum, m: MetricSet) -> TensorSum:
    """u rescaled to unit metric norm."""
    return u.scaled(1.0 / h_norm(u, m))


def grad_check_rayleigh(op: KroneckerSumOperator, m: MetricSet, v: TensorSum,
                        h_step: float = 1e-5, num_dirs: int = 20,
                        seed: int = 0) -> float:
    """Finite-difference check of the Rayleigh quotient derivative.

    The derivative of J(v) = a(v,v)/<v,v> in direction w is
    J'(v)w = 2 (a(v,w) - J(v) <v,w>) / <v,v>; central differences along
    ``num_dirs`` seeded rank-one directions are compared against it and the
    maximum relative error is returned.
    """
    nrm2 = a_inner(m, v, v)
    nrm = float(np.sqrt(nrm2))
    if not (0.5 < nrm < 1.5):
        raise ValueError(f"base point norm {nrm:.3f} outside (0.5, 1.5)")
    jv = a_inner(op, v, v) / nrm2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_dirs):
        w = TensorSum.rank_one([rng.standard_normal(n) for n in op.sizes])
        wn = float(np.sqrt(a_inner(m, w, w)))
        w = w.scaled(1.0 / wn)
        analytic = 2.0 * (a_inner(op, v, w) - jv * a_inner(m, v, w)) / nrm2

        def j_of(t):
            vt = v.plus(w.scaled(t))
            return a_inner(op, vt, vt) / a_inner(m, vt, vt)

        fd = (j_of(h_step) - j_of(-h_step)) / (2.0 * h_step)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(fd - analytic) / scale)
    return worst
