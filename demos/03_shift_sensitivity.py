"""
How the coercivity shift slows the residual rule down
=====================================================

The residual correction rule works with the shifted bilinear form
a(v, w) + nu <v, w>.  The shift nu exists to make the form coercive when
the operator is indefinite; for an already positive definite operator any
nu > 0 is legal but unnecessary.  This script measures the price of an
oversized shift: the iteration count to a fixed accuracy grows with nu.
"""

from greedy_eig import (
    GreedyConfig,
    Variant,
    dense_reference,
    gen_random_kronecker,
    initialize,
    step,
)

op, m = gen_random_kronecker(d=2, sizes=(7, 7), K=2, seed=7)
ref = dense_reference(op, m)
print(f"reference mu_1 = {ref.mu1:.10f}")
print()
print("  nu    iterations to |lambda - mu_1| <= 1e-6")

for nu in (0.0, 10.0, 50.0, 200.0):
    cfg = GreedyConfig(variant=Variant.RESIDUAL, nu=nu, max_iter=600,
                       tol_residual=1e-14, tol_lambda=1e-16, rng_seed=3)
    state = initialize(op, m, cfg)
    hit = None
    while state.n < cfg.max_iter:
        state = step(state, op, m, cfg)
        if abs(state.lam - ref.mu1) <= 1e-6:
            hit = state.n
            break
    print(f"{nu:5.0f}   {hit if hit is not None else '> 600'}")

print()
print("The trend is monotone: the larger the shift, the more the rule")
print("behaves like damped gradient descent and the slower it converges.")
print("Pick nu just large enough for coercivity and no larger.")
