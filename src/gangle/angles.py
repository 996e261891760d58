"""g-angles: vector-vector, line-vs-subspace and plane-vs-subspace.

Vector angles use the signed cosine g(y, x) / (|x| |y|) and live in [0, pi].
Subspace angles are defined through cos^2 and live in [0, pi/2]:

* line vs t-dim subspace -- cos^2 = g(u_V, u)^2 / (|u|^2 |u_V|^2) with u_V the
  g-orthogonal projection of u onto V.  The projected-length ratio
  |u_V|^2 / |u|^2 is reported alongside: the two coincide in inner-product
  spaces but need not elsewhere, so the gap is measured, never assumed zero.
* plane vs t-dim subspace -- cos^2 = L(u1_V, u2_V)^2 / L(u1, u2)^2 where L is
  the parallelogram-area functional of :func:`lambda_functional`.

The cosine, cos^2 and a squared area each pass one range rule, :func:`_clamp`:
beyond round-off slack it raises ConsistencyError instead of clamping silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConsistencyError, DegenerateSubspaceError, NumericalRangeError, ZeroVectorError
from .gram import Subspace, _project, det, left_orthonormalize
from .semi_inner import g, g_functional
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


def _clamp(v, lo, hi, what: str, scale=1.0):
    """v in [lo, hi]; the nearer bound, as a float, for a float v outside by at
    most ``_CLAMP_SLACK * max(scale, 1e-300)`` (an exact v never meets the slack)."""
    if lo <= v <= hi:
        return v
    if isinstance(v, float):
        slack = _CLAMP_SLACK * max(scale, 1e-300)
        if lo - slack <= v <= hi + slack:
            return float(lo if v < lo else hi)
    raise ConsistencyError(f"{what} = {v} falls outside [{lo}, {hi}] beyond round-off slack")


def _nonzero_square(value):
    """A squared norm of a nonzero vector, or a product of two: 0 only when
    the float value underflowed and inf only when it overflowed, each of
    which raises NumericalRangeError."""
    if value == 0 or value == math.inf:
        raise NumericalRangeError("a squared norm, or a product of two, leaves the float range")
    return value


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
    try:
        scale = float(nsx) * float(nsy)
    except OverflowError:  # an exact squared norm beyond the float range
        scale = math.inf
    cos = None
    if isinstance(nsx, float) or 0.0 < scale < math.inf:
        cos = _clamp(float(gyx) / math.sqrt(_nonzero_square(scale)), -1, 1, "cosine")
    cos_sq = _clamp(gyx * gyx / (nsx * nsy), 0, 1, "cos^2")
    if cos is None:  # exact norms whose float product leaves the float range
        cos = math.copysign(math.sqrt(cos_sq), -1 if gyx < 0 else 1)
    return AngleResult(cos_sq, math.acos(cos), PATH_VECTOR, cos=cos)


def angle_line_subspace(u: SparseVector, V: Subspace) -> AngleResult:
    """Angle between span{u} and V, via the g-orthogonal projection of u.

    If the projection is zero the angle is pi/2 by convention (the primary
    formula degenerates to 0/0 there)."""
    if u.is_zero:
        raise ZeroVectorError("the line must be spanned by a nonzero vector")
    _, u_v = _project(u, V)
    nsu = _nonzero_square(norm_sq(u, V.space))
    nsuv = None if u_v.is_zero else norm_sq(u_v, V.space)
    if u_v.is_zero or (isinstance(nsu, float) and nsuv <= 1e-24 * nsu):
        zero = nsu * 0
        return AngleResult(
            zero, math.pi / 2, PATH_LINE_PROJECTION, cos_sq_ratio=zero, ratio_gap=0.0
        )
    guvu = g(u_v, u, V.space)
    primary = _clamp(guvu * guvu / _nonzero_square(nsu * nsuv), 0, 1, "cos^2")
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
    g(x_c*, x_r*) with r < c and g(x_c*, u) are computed, from one map
    ``g_functional(x_c*, space)`` per starred vector; the rest are the 1s
    and 0s of the left g-orthonormal basis of an lp space."""
    space = V.space
    if not isinstance(space, LpSpace):
        raise ValueError("the explicit sum is defined for lp spaces only")
    if u.is_zero:
        raise ZeroVectorError("the line must be spanned by a nonzero vector")
    starred = left_orthonormalize(V.basis, space)
    p = Fraction(space.p)  # so an exact total stays exact under LpSpace(2.0)
    # D_j transposed (same det): row c is the starred Gram row
    # (g(x_c*, x_1*), ..., g(x_c*, x_t*)), unit lower-triangular, then
    # g(x_c*, u); the last row is (x_1*(j), ..., x_t*(j), 0)
    t = len(starred)
    gs = [g_functional(xc, space) for xc in starred]
    lead = [list(map(gc, starred[:c])) + [1] + [0] * (t - 1 - c) + [gc(u)] for c, gc in enumerate(gs)]
    total = 0
    for j in sorted(set().union(*(v.support for v in starred))):
        total += abs(det(lead + [[v.get(j) for v in starred] + [0]])) ** p
    nsu = _nonzero_square(norm_sq(u, space))
    return total ** (2 / p) / nsu


def _area_sq(x: SparseVector, y: SparseVector, space: Space, underflow_ok: bool = False):
    """(value_sq, |x|^2 |y|^2) of :func:`lambda_functional`, with round-off
    below 0 within slack of |x|^2 |y|^2 set to 0.  A float product of two
    nonzero squared norms that overflows raises NumericalRangeError, and so
    does one that underflows to 0 unless ``underflow_ok``."""
    scale = norm_sq(x, space) * norm_sq(y, space)
    gg = abs(g(x, y, space)) * abs(g(y, x, space))
    if isinstance(scale, float) and not (x.is_zero or y.is_zero) and (scale or not underflow_ok):
        _nonzero_square(scale)
    value_sq = _clamp(scale - gg, 0, math.inf, "squared area", scale)
    return value_sq, scale


def lambda_functional(x: SparseVector, y: SparseVector, space: Space) -> LambdaValue:
    """Area-like functional |x|^2 |y|^2 - |g(x,y)| |g(y,x)| under a root.

    Zero for linearly dependent pairs; symmetric; absolutely homogeneous in
    each slot; bounded by |x| |y|.  Fails the triangle inequality in general
    normed spaces; a float root out of the float range raises NumericalRangeError."""
    value_sq, _ = _area_sq(x, y, space)
    value = exact_sqrt(value_sq) if isinstance(value_sq, Fraction) else None
    if value is None:
        try:
            value = math.sqrt(value_sq)
        except OverflowError:  # an exact value_sq beyond the float range
            value = 0.0
        if value_sq and not value:
            raise NumericalRangeError("the root of this squared area leaves the float range")
    return LambdaValue(value, value_sq)


def angle_plane_subspace(U: Subspace, V: Subspace) -> AngleResult:
    """Angle between a 2-dimensional U and a t-dimensional V (t >= 2):
    cos^2 is the squared-area ratio of the projected spanning pair."""
    if U.dim != 2:
        raise ValueError("U must be spanned by exactly two vectors")
    if V.dim < 2:
        raise ValueError("V must have dimension at least 2")
    if U.space != V.space:
        raise ValueError("U and V must lie in the same space")
    space = V.space
    u1, u2 = U.basis
    base_sq, scale = _area_sq(u1, u2, space)
    if base_sq == 0 or (isinstance(base_sq, float) and base_sq <= _CLAMP_SLACK * scale):
        raise DegenerateSubspaceError(
            "the spanning pair of U has zero area; the angle is undefined"
        )
    _, v1 = _project(u1, V)
    _, v2 = _project(u2, V)
    # a projected area that underflows is the float value of a tiny cos^2
    proj_sq, _ = _area_sq(v1, v2, space, underflow_ok=True)
    cos_sq = _clamp(proj_sq / base_sq, 0, 1, "cos^2")
    return AngleResult(cos_sq, _subspace_angle(cos_sq), PATH_PLANE_LAMBDA)
