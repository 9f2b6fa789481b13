"""Greedy rank-one solvers for Kronecker-structured symmetric eigenproblems."""

from .adm import (
    AdmOutcome,
    adm_explicit_step,
    adm_initial_guess,
    adm_rayleigh_step,
    adm_residual_step,
)
from .errors import (
    AdmFailure,
    DegenerateDenominator,
    DegenerateDirection,
    DegenerateIterate,
    ExplicitStepFailure,
    GreedyEigError,
    IllConditionedGram,
    InvalidSpec,
    KernelFailure,
    NuTooSmall,
    ParseError,
    PoleCollision,
    SingularSystem,
    StructuralError,
    TooLargeForOracle,
    VersionError,
)
from .greedy import (
    GreedyConfig,
    GreedyResult,
    GreedyState,
    TraceRow,
    Variant,
    initialize,
    orthogonal_update,
    run,
    step,
)
from .problems import (
    ProblemSpec,
    gen_degenerate_lowest,
    gen_excited_trap,
    gen_random_kronecker,
    gen_separable,
    load_operator,
    save_operator,
)
from .reference_oracle import (
    DenseReference,
    dense_assemble,
    dense_reference,
    error_metrics,
)
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    a_inner,
    eig_residual,
    h_norm,
)

__version__ = "0.1.0"
