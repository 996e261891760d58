"""g-angles: vector-vector, line-vs-subspace and plane-vs-subspace.

Vector angles use the signed cosine g(y, x) / (|x| |y|) and live in [0, pi].
Subspace angles are defined through cos^2 and live in [0, pi/2]:

* line vs t-dim subspace -- cos^2 = g(u_V, u)^2 / (|u|^2 |u_V|^2) with u_V the
  g-orthogonal projection of u onto V.  The projected-length ratio
  |u_V|^2 / |u|^2 is reported alongside: the two coincide in inner-product
  spaces but need not elsewhere, so the gap is measured, never assumed zero.
* plane vs t-dim subspace -- cos^2 = L(u1_V, u2_V)^2 / L(u1, u2)^2 where L is
  the parallelogram-area functional of :func:`lambda_functional`.

Out-of-range cos^2 beyond round-off slack raises ConsistencyError instead of
being clamped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConsistencyError, DegenerateSubspaceError, ZeroVectorError
from .gram import Subspace, _unit_lower_gram, det, left_orthonormalize, project
from .semi_inner import g
from .vectors import Coeff, LpSpace, SparseVector, Space, exact_sqrt, norm_sq

_CLAMP_SLACK = 1e-12

PATH_VECTOR = "vector"
PATH_LINE_PROJECTION = "dim1-projection"
PATH_PLANE_LAMBDA = "dim2-lambda"


@dataclass(frozen=True)
class AngleResult:
    """cos^2, the angle in radians, and which computation path produced it.

    ``cos`` is the signed cosine (vector path only).  ``cos_sq_ratio`` is the
    projected-length ratio and ``ratio_gap`` its absolute deviation from
    ``cos_sq`` (line-subspace path only)."""

    cos_sq: Coeff
    angle_rad: float
    path: str
    cos: Optional[float] = None
    cos_sq_ratio: Optional[Coeff] = None
    ratio_gap: Optional[float] = None


@dataclass(frozen=True)
class LambdaValue:
    """Parallelogram-area functional: value_sq = |x|^2 |y|^2 - |g(x,y)| |g(y,x)|.

    ``value`` is its square root -- exact when the square root is rational,
    a float otherwise."""

    value: Coeff
    value_sq: Coeff


def _clamp_unit(v, what: str = "cos^2"):
    """Force v into [0, 1], allowing only round-off slack for floats."""
    if not isinstance(v, float):
        if v < 0 or v > 1:
            raise ConsistencyError(f"{what} = {v} falls outside [0, 1]")
        return v
    if -_CLAMP_SLACK <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + _CLAMP_SLACK:
        return 1.0
    if v < 0.0 or v > 1.0:
        raise ConsistencyError(f"{what} = {v} falls outside [0, 1] beyond round-off slack")
    return v


def _subspace_angle(cos_sq) -> float:
    return math.acos(math.sqrt(float(cos_sq)))


def vector_angle(x: SparseVector, y: SparseVector, space: Space) -> AngleResult:
    """Angle between nonzero vectors: arccos of g(y, x) / (|x| |y|).

    Note the argument order: the semi-inner product takes y in its first
    slot, so the angle is generally not symmetric in (x, y)."""
    if x.is_zero or y.is_zero:
        raise ZeroVectorError("the angle between vectors needs both nonzero")
    gyx = g(y, x, space)
    nsx = norm_sq(x, space)
    nsy = norm_sq(y, space)
    cos = float(gyx) / math.sqrt(float(nsx) * float(nsy))
    if cos < -1.0 - _CLAMP_SLACK or cos > 1.0 + _CLAMP_SLACK:
        raise ConsistencyError(f"cosine {cos} falls outside [-1, 1] beyond round-off slack")
    cos = max(-1.0, min(1.0, cos))
    cos_sq = _clamp_unit(gyx * gyx / (nsx * nsy))
    return AngleResult(cos_sq, math.acos(cos), PATH_VECTOR, cos=cos)


def angle_line_subspace(u: SparseVector, V: Subspace) -> AngleResult:
    """Angle between span{u} and V, via the g-orthogonal projection of u.

    If the projection is zero the angle is pi/2 by convention (the primary
    formula degenerates to 0/0 there)."""
    if u.is_zero:
        raise ZeroVectorError("the line must be spanned by a nonzero vector")
    pr = project(u, V)
    u_v = pr.projected
    nsu = norm_sq(u, V.space)
    if u_v.is_zero or (
        isinstance(nsu, float) and norm_sq(u_v, V.space) <= 1e-24 * nsu
    ):
        zero = nsu * 0
        return AngleResult(
            zero, math.pi / 2, PATH_LINE_PROJECTION, cos_sq_ratio=zero, ratio_gap=0.0
        )
    nsuv = norm_sq(u_v, V.space)
    guvu = g(u_v, u, V.space)
    primary = _clamp_unit(guvu * guvu / (nsu * nsuv))
    ratio = nsuv / nsu  # can exceed 1 when |u_V| > |u|; reported, not clamped
    return AngleResult(
        primary,
        _subspace_angle(primary),
        PATH_LINE_PROJECTION,
        cos_sq_ratio=ratio,
        ratio_gap=abs(float(primary) - float(ratio)),
    )


def cos_sq_explicit_sum(u: SparseVector, V: Subspace) -> Coeff:
    """cos^2 of the line-vs-subspace angle by the paper's explicit sum.

    Left g-orthonormalizes the basis of V into x_1*, ..., x_t*, then returns
    (sum_j |D_j|^p)^(2/p) / |u|^2 over the union of the starred supports.
    D_j is a (t+1)-by-(t+1) determinant: column c <= t holds (g(x_c*, x_1*),
    ..., g(x_c*, x_t*), g(x_c*, u)) and the last column (x_1*(j), ...,
    x_t*(j), 0).  The paper writes D_j as a multi-index sum of determinants
    with weights |x_c*(i)|^(p-1) sgn(x_c*(i)); a determinant is linear in
    each column and |x_c*| = 1, so each weighted column sums to the g-values
    above.  Equals the projected-length ratio |u_V*|^2 / |u|^2 for the
    projection onto the orthonormalized basis.

    Of the t^2 + t g-values in the determinants, only the t(t+1)/2 values
    g(x_c*, x_r*) with r < c and g(x_c*, u) are computed; the rest are the
    1s and 0s of the left g-orthonormal basis of an lp space."""
    space = V.space
    if not isinstance(space, LpSpace):
        raise ValueError("the explicit sum is defined for lp spaces only")
    if u.is_zero:
        raise ZeroVectorError("the line must be spanned by a nonzero vector")
    starred = left_orthonormalize(V.basis, space)
    p = space.p
    # D_j transposed (same det): row c is the starred Gram row
    # (g(x_c*, x_1*), ..., g(x_c*, x_t*)), unit lower-triangular, then
    # g(x_c*, u); the last row is (x_1*(j), ..., x_t*(j), 0)
    below = [[g(xc, xr, space) for xr in starred[:c]] for c, xc in enumerate(starred)]
    lead = [
        list(row) + [g(xc, u, space)]
        for row, xc in zip(_unit_lower_gram(below, starred[0].backend).matrix, starred)
    ]
    total = 0
    for j in sorted(set().union(*(v.support for v in starred))):
        total += abs(det(lead + [[v.get(j) for v in starred] + [0]])) ** p
    nsu = norm_sq(u, space)
    if isinstance(nsu, float):
        return total ** (2.0 / float(p)) / nsu
    return (total * total if p == 1 else total) / nsu


def lambda_functional(x: SparseVector, y: SparseVector, space: Space) -> LambdaValue:
    """Area-like functional |x|^2 |y|^2 - |g(x,y)| |g(y,x)| under a root.

    Zero for linearly dependent pairs; symmetric; absolutely homogeneous in
    each slot; bounded by |x| |y|.  Fails the triangle inequality in general
    normed spaces."""
    nsx = norm_sq(x, space)
    nsy = norm_sq(y, space)
    gxy = g(x, y, space)
    gyx = g(y, x, space)
    value_sq = nsx * nsy - abs(gxy) * abs(gyx)
    if value_sq < 0:
        if isinstance(value_sq, float) and abs(value_sq) <= _CLAMP_SLACK * max(
            float(nsx) * float(nsy), 1e-300
        ):
            value_sq = 0.0
        else:
            raise ConsistencyError(
                f"squared area {value_sq} is negative beyond round-off slack"
            )
    if isinstance(value_sq, Fraction):
        root = exact_sqrt(value_sq)
        value = root if root is not None else math.sqrt(float(value_sq))
    else:
        value = math.sqrt(value_sq)
    return LambdaValue(value, value_sq)


def angle_plane_subspace(U: Subspace, V: Subspace) -> AngleResult:
    """Angle between a 2-dimensional U and a t-dimensional V (t >= 2):
    cos^2 is the squared-area ratio of the projected spanning pair."""
    if U.dim != 2:
        raise ValueError("U must be spanned by exactly two vectors")
    if V.dim < 2:
        raise ValueError("V must have dimension at least 2")
    space = V.space
    u1, u2 = U.basis
    lam = lambda_functional(u1, u2, space)
    base_sq = lam.value_sq
    if base_sq == 0 or (
        isinstance(base_sq, float)
        and base_sq
        <= _CLAMP_SLACK * float(norm_sq(u1, space)) * float(norm_sq(u2, space))
    ):
        raise DegenerateSubspaceError(
            "the spanning pair of U has zero area; the angle is undefined"
        )
    p1 = project(u1, V)
    p2 = project(u2, V)
    lam_proj = lambda_functional(p1.projected, p2.projected, space)
    cos_sq = _clamp_unit(lam_proj.value_sq / base_sq)
    return AngleResult(cos_sq, _subspace_angle(cos_sq), PATH_PLANE_LAMBDA)
