"""Gram matrices, g-orthogonal projections and left g-orthonormalization.

The projection of y onto span{x_1, ..., x_n} is the vector y_S in the span
whose residual satisfies g(x_i, y - y_S) = 0 for every basis vector.  It is
computed from the n-by-n linear system

    sum_k c_k * g(x_i, x_k) = g(x_i, y),        y_S = sum_k c_k * x_k,

which is equivalent (by Cramer's rule) to the bordered-determinant formula.

Beware that g is not linear in its first argument, so for p != 2 the
projection genuinely depends on the *basis* chosen for the span, not just on
the span itself (the orthogonality conditions g(x_i, r) = 0 are attached to
the basis vectors).  Likewise left g-orthonormalization depends on the order
of the input vectors.  Neither is "fixed" here; callers choose the basis.

In an lp space the Gram matrix [g(x_k*, x_l*)] of a left g-orthonormalized
basis is unit lower-triangular: g(x_k*, x_k*) = |x_k*|^2 = 1, and
g(x_k*, x_l*) = 0 for k < l because x_l* is a residual orthogonal to its
predecessors and g is linear in its second argument there.
:func:`left_orthonormalize` reuses that structure instead of recomputing it.
A black-box norm's g need not be additive in its second argument (the max
norm with tied coordinates is not), so there the full Gram matrix is
computed at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import DegenerateSubspaceError, DependenceError, ZeroVectorError
from .semi_inner import g
from .vectors import Coeff, LpSpace, SparseVector, Space, _one, _zero, norm

# Scale-aware float singularity threshold: |det| <= REL_SINGULAR * prod(diag)
# is treated as a zero Gram determinant (the diagonal entries are |x_i|^2).
REL_SINGULAR = 1e-10


def _eliminate(a: list) -> int:
    """Reduce the n rows of ``a`` (n or more columns) in place to upper
    triangular form in their first n columns, by Gaussian elimination with
    partial pivoting.  Returns the sign of the row permutation, or 0 when a
    pivot column is zero (the leading n-by-n block is singular)."""
    n = len(a)
    sign = 1
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        if isinstance(a[col][col], int):
            a[col][col] = Fraction(a[col][col])  # ints are exact; int / int is a float
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, len(a[col])):
                a[r][c] -= f * a[col][c]
    return sign


def det(rows: Sequence[Sequence[Coeff]]) -> Coeff:
    """Determinant by Gaussian elimination with partial pivoting.

    Works for Fraction and float entries alike (exact for Fractions and
    ints)."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = _eliminate(a)
    if sign == 0:
        return a[0][0] * 0  # zero in the right backend
    return sign * math.prod(a[i][i] for i in range(n))


def solve(rows: Sequence[Sequence[Coeff]], rhs: Sequence[Coeff]) -> list:
    """Solve a square linear system by elimination with partial pivoting."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not _eliminate(a):
        raise DegenerateSubspaceError("singular linear system")
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


@dataclass(frozen=True)
class GramData:
    """Matrix [g(x_i, x_k)] (row i, column k) and its determinant."""

    matrix: Tuple[Tuple[Coeff, ...], ...]
    det: Coeff

    @property
    def diagonal_product(self) -> Coeff:
        return math.prod(row[i] for i, row in enumerate(self.matrix))

    @property
    def is_degenerate(self) -> bool:
        if isinstance(self.det, Fraction):
            return self.det == 0
        return abs(self.det) <= REL_SINGULAR * abs(float(self.diagonal_product))


def gram(basis: Sequence[SparseVector], space: Space) -> GramData:
    """Gram data of an ordered set of nonzero vectors."""
    basis = tuple(basis)
    if not basis:
        raise ValueError("basis must be nonempty")
    if any(v.is_zero for v in basis):
        raise ZeroVectorError("basis vectors must be nonzero")
    matrix = tuple(tuple(g(xi, xk, space) for xk in basis) for xi in basis)
    return GramData(matrix, det(matrix))


def certifies_independence(data: GramData) -> bool:
    """True guarantees linear independence of the set behind ``data``.

    False is inconclusive: independent sets can have a zero Gram determinant
    in a general normed space."""
    return not data.is_degenerate


class Subspace:
    """Ordered basis of nonzero vectors plus its ambient space.

    Gram data is computed lazily and cached.  The cache is pure, so two
    threads racing on a fresh subspace at worst compute the same data twice."""

    def __init__(self, basis: Sequence[SparseVector], space: Space):
        basis = tuple(basis)
        if not basis:
            raise ValueError("a subspace needs at least one basis vector")
        if any(v.is_zero for v in basis):
            raise ZeroVectorError("basis vectors must be nonzero")
        self.basis = basis
        self.space = space
        self._gram = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def gram(self) -> GramData:
        if self._gram is None:
            self._gram = gram(self.basis, self.space)
        return self._gram

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, space={self.space!r})"


@dataclass(frozen=True)
class Projection:
    """Result of projecting y: coefficients c with y_S = sum c_k x_k,
    the projected vector, and the residual y - y_S."""

    coefficients: Tuple[Coeff, ...]
    projected: SparseVector
    residual: SparseVector


def project(y: SparseVector, sub: Subspace) -> Projection:
    """g-orthogonal projection of y onto the subspace's basis."""
    data = sub.gram()
    if data.is_degenerate:
        raise DegenerateSubspaceError(
            "Gram determinant is zero; the projection is undefined"
        )
    rhs = [g(xi, y, sub.space) for xi in sub.basis]
    coeffs = solve(data.matrix, rhs)
    projected = SparseVector()
    for c, xk in zip(coeffs, sub.basis):
        projected = projected.add(xk.scale(c))
    return Projection(tuple(coeffs), projected, y.sub(projected))


def _unit_lower_gram(rows: Sequence[Sequence[Coeff]], backend) -> GramData:
    """Gram data of a left g-orthonormal basis of an lp space from its rows
    below the diagonal: 1 on the diagonal, 0 above it, determinant 1, all in
    the scalars of ``backend``."""
    n = len(rows)
    one, zero = _one(backend), _zero(backend)
    matrix = tuple(
        tuple(row) + (one,) + (zero,) * (n - 1 - k) for k, row in enumerate(rows)
    )
    return GramData(matrix, one)


def left_orthonormalize(basis: Sequence[SparseVector], space: Space) -> list:
    """Gram-Schmidt-like recursion producing unit vectors x_k* with
    g(x_k*, x_l*) = 0 for k < l.  Order-sensitive by construction.

    Step k projects x_k onto x_1*, ..., x_{k-1}* through :func:`project`.
    In an lp space the unit lower-triangular Gram data of the starred vectors
    is filled in from the rows kept so far, so the step makes only the k - 1
    right-hand-side g calls.  The row g(x_k*, x_j*), j < k, costs k - 1 more
    and is computed only when another vector follows: (d - 1)^2 g calls for
    d vectors.  Under a black-box norm each step computes its full Gram
    matrix, as g there need not be additive in its second argument."""
    basis = tuple(basis)
    triangular = isinstance(space, LpSpace)
    out = []
    rows = []  # rows[k] = [g(x_k*, x_j*) for j < k], lp spaces only
    for k, xk in enumerate(basis):
        if k == 0:
            residual = xk
        else:
            sub = Subspace(out, space)
            if triangular:
                sub._gram = _unit_lower_gram(rows, out[0].backend)
            residual = project(xk, sub).residual
        if residual.is_zero:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        r = norm(residual, space)
        if isinstance(r, float) and r <= 1e-12 * max(float(norm(xk, space)), 1e-300):
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        starred = residual.scale(Fraction(1) / r)
        if triangular and k + 1 < len(basis):
            rows.append([g(starred, xj, space) for xj in out])
        out.append(starred)
    return out
