"""Semi-inner products, g-orthogonal projections and g-angles between
subspaces of normed sequence spaces (lp and user-supplied norms)."""

from .angles import (
    AngleResult,
    LambdaValue,
    angle_line_subspace,
    angle_plane_subspace,
    cos_sq_explicit_sum,
    lambda_functional,
    vector_angle,
)
from .errors import (
    BackendError,
    ConsistencyError,
    DegenerateSubspaceError,
    DependenceError,
    EstimationFailureError,
    GAngleError,
    NumericalRangeError,
    ProblemFileError,
    ZeroVectorError,
)
from .gram import (
    GramData,
    Projection,
    Subspace,
    certifies_independence,
    gram,
    left_orthonormalize,
    project,
)
from .semi_inner import TauPair, g, g_explicit, g_from_norm, tau
from .vectors import (
    LpSpace,
    OracleSpace,
    SparseVector,
    check_norm_axioms,
    lp_norm,
    norm,
    norm_sq,
    sgn,
)

__all__ = [
    "AngleResult",
    "BackendError",
    "ConsistencyError",
    "DegenerateSubspaceError",
    "DependenceError",
    "EstimationFailureError",
    "GAngleError",
    "GramData",
    "LambdaValue",
    "LpSpace",
    "NumericalRangeError",
    "OracleSpace",
    "ProblemFileError",
    "Projection",
    "SparseVector",
    "Subspace",
    "TauPair",
    "ZeroVectorError",
    "angle_line_subspace",
    "angle_plane_subspace",
    "certifies_independence",
    "check_norm_axioms",
    "cos_sq_explicit_sum",
    "g",
    "g_explicit",
    "g_from_norm",
    "gram",
    "lambda_functional",
    "left_orthonormalize",
    "lp_norm",
    "norm",
    "norm_sq",
    "project",
    "sgn",
    "tau",
    "vector_angle",
]

__version__ = "0.1.0"
