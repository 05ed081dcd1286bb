"""Maximum likelihood estimation for Gaussian DAG models with sample
stabilisations.

When the MLE given a sample does not exist or is not unique, the sample can
be perturbed into a stabilisation — built from an affine lift of a complete
collineation — given which the MLE is always unique.  This package computes
the estimates, the stabilisations, the limit of the MLE along the
stabilisation path (numerically and in closed form), and pointwise
membership in the parameter-space varieties that classify which estimates
arise this way.
"""

from types import ModuleType as _ModuleType

from .graph import (
    ABOVE_NO_COLLIDERS,
    ABOVE_WITH_COLLIDERS,
    BELOW_DEPTH,
    BETWEEN,
    EXISTS_NON_UNIQUE,
    EXISTS_UNIQUE,
    NONEXISTENT,
    Dag,
    Regime,
    depth,
    is_star,
    is_transitive,
    mlt,
    parents,
    regime,
    star,
    unshielded_colliders,
)
from .linalg import (
    DEFAULT_TOL,
    PencilExpansion,
    image_basis,
    kernel_basis,
    orth_complement,
    pencil_expand,
    rank,
)
from .mle import (
    Classification,
    MleEstimate,
    classify,
    covariance,
    duplicate,
    full_mle,
    is_lambda_mle,
    is_mle,
    lambda_kernel_basis,
    lambda_mle,
    loglik,
    omega_mle,
)
from .stabilise import (
    CollineationLift,
    InvalidLiftError,
    InvalidPerturbationError,
    LiftStage,
    Perturbation,
    PerturbationCheck,
    build_from_lift,
    is_perturbation,
    random_lift,
    stabilize,
    validate_lift,
)
from .limits import (
    DEFAULT_EPS_GRID,
    LimitResult,
    VertexDiagnostics,
    check_alpha_fixed,
    check_full_condition,
    check_lambda_condition,
    limit_mle,
    limit_mle_numeric,
    mle_at_epsilon,
)
from .varieties import (
    AlphaNotMleError,
    VarietyQuery,
    in_Xf,
    in_Xf_alpha,
    in_Xf_alpha_lim,
    star_min_norm_mle,
)

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
