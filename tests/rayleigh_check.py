"""Finite-difference check of the Rayleigh quotient's derivative, shared by
the acceptance suite and the oracle tests."""

import numpy as np

from greedy_eig.tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    h_inner,
)


def grad_check_rayleigh(op: KroneckerSumOperator, m: MetricSet, v: TensorSum,
                        h_step: float = 1e-5, num_dirs: int = 20,
                        seed: int = 0) -> float:
    """Finite-difference check of the Rayleigh quotient derivative.

    The derivative of J(v) = a(v,v)/<v,v> in direction w is
    J'(v)w = 2 (a(v,w) - J(v) <v,w>) / <v,v>; central differences along
    ``num_dirs`` seeded rank-one directions are compared against it and the
    maximum relative error is returned.
    """
    nrm2 = h_inner(v, v, m)
    nrm = float(np.sqrt(nrm2))
    if not (0.5 < nrm < 1.5):
        raise ValueError(f"base point norm {nrm:.3f} outside (0.5, 1.5)")
    jv = a_inner(op, v, v) / nrm2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_dirs):
        w = TensorSum.rank_one([rng.standard_normal(n) for n in op.sizes])
        wn = float(np.sqrt(h_inner(w, w, m)))
        w = w.scaled(1.0 / wn)
        analytic = 2.0 * (a_inner(op, v, w) - jv * h_inner(v, w, m)) / nrm2

        def j_of(t):
            vt = v.plus(w.scaled(t))
            return a_inner(op, vt, vt) / h_inner(vt, vt, m)

        fd = (j_of(h_step) - j_of(-h_step)) / (2.0 * h_step)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(fd - analytic) / scale)
    return worst
