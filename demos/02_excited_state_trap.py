"""
When greedy rank-one corrections get stuck
==========================================

The pure greedy rules start from the best rank-one approximation and can
only escape it through rank-one corrections.  This script builds an
operator whose lowest eigenvector is entangled: every rank-one candidate
has a Rayleigh quotient strictly above the true minimum, and the greedy
iteration stagnates at that higher level.
"""

from greedy_eig import (
    GreedyConfig,
    Variant,
    dense_reference,
    gen_excited_trap,
    run,
)

# levels: true minimum at 1.0, best rank-one value pinned at 2.0
op, m = gen_excited_trap(mu_02=1.0, mu_11=2.0, mu_20=17.0, M_shift=20.0,
                         modes_per_dim=3)
ref = dense_reference(op, m)
print(f"dense minimum            mu_1 = {ref.mu1:.10f}")
print(f"designed rank-one floor        = {2.0:.10f}")
print()

for variant in (Variant.RAYLEIGH, Variant.RESIDUAL):
    cfg = GreedyConfig(variant=variant, max_iter=40, tol_lambda=1e-13,
                       rng_seed=0)
    res = run(op, m, cfg)
    print(f"{variant.value:10s} stops with lambda = {res.lam:.10f} "
          f"({res.reason}, {res.iterations} iterations)")

print()
print("Both rules stall at 2.0, one full unit above the true minimum:")
print("the stagnation value is an excited level of the operator, not an")
print("artifact of the solver.  Certification at generation time samples")
print("thousands of random rank-one candidates and evaluates every")
print("coordinate element e_k x e_l to confirm the floor.")
