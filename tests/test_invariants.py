"""Invariants of a greedy run, property-tested over d = 2-4, SPD masses and
all six rules.

The paper's convergence results hold for any d and any SPD pencil; they
start from the monotone decrease of the eigenvalue estimate and from the
Galerkin optimality of the orthogonal flavour, so those are checked here
together with the bookkeeping of the trace and that no run ends in a step
failure.  Each example draws one problem and one rule.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_eig.greedy import GreedyConfig, Variant, run
from greedy_eig.problems import gen_random_kronecker
from greedy_eig.reference_oracle import dense_reference
from greedy_eig.tensor_core import MetricSet
from rayleigh_check import rayleigh


def spd_mass(n, cond, rng):
    """A rotated mass whose spectrum is log-spaced over [1, cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mass = (q * np.logspace(0.0, np.log10(cond), n)) @ q.T
    return 0.5 * (mass + mass.T)


@st.composite
def problems(draw):
    """An SPD Kronecker sum at d = 2-4, its masses, a shift and a seed."""
    d = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(3, 4 if d == 4 else 6),
                                min_size=d, max_size=d)))
    op, _ = gen_random_kronecker(d, sizes, draw(st.integers(2, 3)),
                                 seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    conds = draw(st.lists(st.floats(1.0, 1e3), min_size=d, max_size=d))
    m = MetricSet([spd_mass(n, c, rng) for n, c in zip(sizes, conds)])
    return (op, m, draw(st.floats(0.0, 2.0, exclude_max=True)),
            draw(st.integers(0, 2**16)))


def without_wall_time(trace):
    return [replace(row, wall_time=0.0) for row in trace]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("orthogonal", [False, True])
@settings(database=None, derandomize=True, deadline=None, max_examples=8)
@given(problem=problems())
def test_run_invariants(variant, orthogonal, problem):
    op, m, nu, seed = problem
    cfg = GreedyConfig(variant=variant, orthogonal=orthogonal,
                       nu=nu if variant is Variant.RESIDUAL else 0.0,
                       max_iter=10, tol_lambda=1e-13, tol_residual=1e-15,
                       rng_seed=seed)
    result = run(op, m, cfg)
    assert not result.reason.startswith("step_failure"), result.reason
    mu1 = dense_reference(op, m).mu1
    tol = 1e-10 * (1.0 + abs(mu1))
    rows = result.trace
    lams = [row.lambda_n for row in rows]

    # the pure explicit rule is not proved monotone: its trace is recorded
    if orthogonal or variant is not Variant.EXPLICIT:
        assert all(b <= a + tol for a, b in zip(lams, lams[1:]))
    assert min(lams) >= mu1 - tol
    if orthogonal:
        assert all(row.lambda_n <= row.lambda_pure + tol for row in rows[1:])
    if variant is not Variant.EXPLICIT:
        assert all(row.euler_residual <= 1e-8 for row in rows[1:])
    for row, u in zip(rows, result.iterates):
        assert abs(row.lambda_n - rayleigh(op, m, u)) <= 1e-12 * (1 + abs(mu1))
    assert rows[0].lambda_decrease == 0.0
    assert all(row.lambda_decrease == prev.lambda_n - row.lambda_n
               for prev, row in zip(rows, rows[1:]))

    again = run(op, m, cfg)
    assert (again.lam, again.reason) == (result.lam, result.reason)
    assert without_wall_time(again.trace) == without_wall_time(rows)
