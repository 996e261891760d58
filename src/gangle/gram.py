"""Gram matrices, g-orthogonal projections and left g-orthonormalization.

The projection of y onto span{x_1, ..., x_n} is the vector y_S in the span
whose residual satisfies g(x_i, y - y_S) = 0 for every basis vector.  It is
computed from the n-by-n linear system

    sum_k c_k * g(x_i, x_k) = g(x_i, y),        y_S = sum_k c_k * x_k,

which is equivalent (by Cramer's rule) to the bordered-determinant formula.
A Gram matrix is eliminated once: the factors give its determinant and then
solve each right-hand side by forward and back substitution, O(n^2).  A
:class:`Subspace` keeps one solver, y -> coefficients, which substitutes the
values at y of the maps y -> g(x_i, y) its rows came from, and builds
:class:`GramData`, the plain record of the matrix and determinant, only when
asked.  Every exact row, Gram or starred, is ints: entry k of
row i is R_ik / (S_i * D_k) over the scales (S_i, D_i), and at p = 2 half
of each Gram matrix is mirrored.  Elimination and solves run on ints, and
only the determinant, each coefficient and the entries of asked-for Gram data
become Fractions.  Every exact projection sums y_S on the int numerators of
the basis vectors over one common denominator: no Fraction per coordinate.

Beware that g is not linear in its first argument, so for p != 2 the
projection genuinely depends on the *basis* chosen for the span, not just on
the span itself (the orthogonality conditions g(x_i, r) = 0 are attached to
the basis vectors).  Likewise left g-orthonormalization depends on the order
of the input vectors.  Neither is "fixed" here; callers choose the basis.

In an lp space the Gram matrix [g(x_k*, x_l*)] of a left g-orthonormalized
basis is unit lower-triangular: g(x_k*, x_k*) = |x_k*|^2 = 1, and
g(x_k*, x_l*) = 0 for k < l because x_l* is a residual orthogonal to its
predecessors and g is linear in its second argument there.
:func:`left_orthonormalize` reuses that structure instead of recomputing it:
each step solves with the rows below the diagonal alone.
A black-box norm's g need not be additive in its second argument (the max
norm with tied coordinates is not), so there the full Gram matrix is
computed at every step.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .errors import DegenerateSubspaceError, DependenceError, NumericalRangeError, ZeroVectorError
from .semi_inner import _gram_rows, _reduced, _row, g
from .vectors import EXACT, FLOAT, Coeff, LpSpace, SparseVector, Space, norm

# Scale-aware float singularity threshold: |det| <= REL_SINGULAR * prod(diag)
# is treated as a zero Gram determinant (the diagonal entries are |x_i|^2).
# Both sides are compared as sums of logarithms, so neither leaves the float
# range however large or small the vectors are.
REL_SINGULAR = 1e-10


class _Factors(NamedTuple):
    """P·A = L·U from one elimination of a square A.  Row k of ``lu`` is row
    ``order[k]`` of A reduced: the multipliers of L below the diagonal, U on
    and above it.  ``sign`` is the sign of the row order, or 0 when a pivot
    column is zero (A is singular; ``lu`` is only partly reduced).  Exact
    factors are the integer Bareiss array of A' = diag(S)·A·diag(D), whose
    entries are the ints R_ik of rows over ``scales[i]`` = (S_i, D_i): L is
    each step's column, not divided by its pivot, and the last pivot is
    det(P·A').  Float factors have no scales."""

    lu: Sequence[Sequence[Coeff]]
    order: Sequence[int]
    sign: int
    scales: Sequence[Tuple[int, int]] = ()


def _eliminate(rows: Sequence[Sequence[Coeff]], scales: Sequence[Tuple[int, int]] = None) -> _Factors:
    """Factor a square matrix by Gaussian elimination: with partial pivoting
    when it has a float entry, else fraction-free on int rows, where any
    nonzero pivot gives the same rationals and the first is taken.  The int
    rows are ``rows`` if ``scales`` are given (exact Gram rows), else each
    row of ints and Fractions times the lcm m_i of its denominators, over
    (m_i, 1)."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    order = list(range(n))
    sign, prev = 1, 1
    if scales is None and not any(isinstance(v, float) for r in a for v in r):
        scales = [(math.lcm(*(v.denominator for v in r)), 1) for r in a]
        a = [[v.numerator * (s // v.denominator) for v in r] for (s, _), r in zip(scales, a)]
    exact, scales = scales is not None, scales or ()
    for col in range(n):
        if exact:
            pivot = next((r for r in range(col, n) if a[r][col]), col)
        else:
            pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:  # det is 0, of rows[0][0]'s type if column 0 is zero
            return _Factors(a, order, 0, scales) if col else _Factors(rows, order, 0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            order[col], order[pivot] = order[pivot], order[col]
            sign = -sign
        head, tail = a[col][col], a[col][col + 1 :]
        for row in a[col + 1 :]:
            if exact:  # Bareiss: the division by the previous pivot is exact
                f = row[col]
                row[col + 1 :] = [(v * head - f * w) // prev for v, w in zip(row[col + 1 :], tail)]
            else:
                f = row[col] = row[col] / head
                row[col + 1 :] = [v - f * w for v, w in zip(row[col + 1 :], tail)]
        prev = head
    return _Factors(a, order, sign, scales)


def _det(f: _Factors) -> Coeff:
    """det(A) from the factors of A.  A float product of nonzero pivots that
    overflows, or underflows to 0, raises NumericalRangeError."""
    if f.scales:
        return Fraction(f.sign * f.lu[-1][-1], math.prod([s * d for s, d in f.scales]))
    if f.sign == 0:
        return f.lu[0][0] * 0  # zero in the right backend
    value = f.sign * math.prod(row[i] for i, row in enumerate(f.lu))
    if not value or not math.isfinite(value):
        raise NumericalRangeError(f"the determinant of nonzero float pivots leaves the float range ({value})")
    return value


def _cramer(f: _Factors, rhs: Sequence[Coeff]) -> list:
    """Solve A x = rhs from integer factors of A in ints as A' u = diag(S)·rhs,
    x = diag(D)·u: the right-hand side, times S_i and the lcm m of its
    denominators, goes through the elimination's recurrence and a
    fraction-free back substitution, so u_k = U_k / (det(P·A')·m), U_k being
    det(P·A') with column k replaced by it, and x_k is one Fraction.
    :func:`project` sums y_S from these as from any exact coefficients."""
    lu, n, scales = f.lu, len(f.lu), f.scales
    m = math.lcm(*[v.denominator for v in rhs])
    b = [scales[i][0] * rhs[i].numerator * (m // rhs[i].denominator) for i in f.order]
    prev = 1
    for k in range(n - 1):
        head, bk = lu[k][k], b[k]
        b[k + 1 :] = [(v * head - lu[i][k] * bk) // prev for i, v in enumerate(b[k + 1 :], k + 1)]
        prev = head
    last = lu[-1][-1]
    for i in range(n - 1, -1, -1):
        b[i] = (last * b[i] - sum(map(operator.mul, lu[i][i + 1 :], b[i + 1 :]))) // lu[i][i]
    return [Fraction(d * v, last * m) for (_, d), v in zip(scales, b)]


def _forward(rows: Sequence[Sequence[Coeff]], scales: Sequence[Tuple[int, int]], rhs: Sequence[Coeff]) -> list:
    """Solve the unit lower-triangular system with the first k entries of
    row k below the diagonal.  Rows with no scales (floats) subtract in
    column order.  Exact rows are ints R_kj over (S_k, D_k): with
    u_j = x_j / D_j, row k reads sum_j R_kj u_j + S_k D_k u_k = S_k rhs_k, so
    each U_k = q u_k is one exact division, q = m * prod(S_j D_j) and m the
    lcm of the right-hand side's denominators: x_k = D_k U_k / q.  The
    starred rows g(x_k*, x_j*), j < k, need no pivot: partial pivoting
    keeps this order while every |g(x_k*, x_j*)| <= 1, as in exact mode
    (|g(x, y)| <= |x| |y| and |x_k*| = 1); a float entry rounded above 1
    would make it swap, where this solves the same system unswapped."""
    if not scales:
        x = []
        for row, acc in zip(rows, rhs):
            for v, xj in zip(row, x):
                acc -= v * xj
            x.append(acc)
        return x
    m = math.lcm(*[b.denominator for b in rhs])
    q = m * math.prod([s * d for s, d in scales])
    u = []
    for row, (s, d), b in zip(rows, scales, rhs):
        u.append((s * b.numerator * (q // b.denominator) - sum(map(operator.mul, row, u))) // (s * d))
    return [Fraction(d * v, q) for (_, d), v in zip(scales, u)]


def _substitute(f: _Factors, rhs: Sequence[Coeff]) -> list:
    """Solve A x = rhs from the factors of A: exact ones in ints by
    :func:`_cramer`, others by L z = P·rhs forward (:func:`_forward`), then
    U x = z backward, where each entry sees the subtractions, in the same
    order, that eliminating the augmented matrix [A | rhs] would apply to it."""
    if not f.sign:
        raise DegenerateSubspaceError("singular linear system")
    if f.scales:
        return _cramer(f, rhs)
    lu, n = f.lu, len(f.lu)
    x = _forward(lu, (), [rhs[i] for i in f.order])
    for i in range(n - 1, -1, -1):
        acc, row = x[i], lu[i]
        for j in range(i + 1, n):
            acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return x


def det(rows: Sequence[Sequence[Coeff]]) -> Coeff:
    """Determinant by Gaussian elimination: exact, on ints, for a matrix of
    ints and Fractions; with partial pivoting for a matrix with a float
    entry, raising NumericalRangeError where a nonzero float determinant
    leaves the float range."""
    return _det(_eliminate(rows))


def _singular(det: Coeff, rows: Sequence[Sequence[Coeff]]) -> bool:
    """Whether a Gram determinant counts as zero, a float one relative to the diagonal."""
    if isinstance(det, Fraction) or not det:
        return det == 0
    diag = [abs(row[i]) for i, row in enumerate(rows)]
    bound = math.log(REL_SINGULAR) + math.fsum(map(math.log, diag)) if all(diag) else -math.inf
    return math.log(abs(det)) <= bound


@dataclass(frozen=True)
class GramData:
    """Matrix [g(x_i, x_k)] (row i, column k) and its determinant."""

    matrix: Tuple[Tuple[Coeff, ...], ...]
    det: Coeff

    @property
    def is_degenerate(self) -> bool:
        return _singular(self.det, self.matrix)


def _basis(basis: Sequence[SparseVector]) -> tuple:
    """The basis as a tuple, checked to be nonempty and free of zero vectors."""
    basis = tuple(basis)
    if not basis:
        raise ValueError("a subspace needs at least one basis vector")
    if any(v.is_zero for v in basis):
        raise ZeroVectorError("basis vectors must be nonzero")
    return basis


def gram(basis: Sequence[SparseVector], space: Space) -> GramData:
    """Gram data of an ordered set of nonzero vectors: that of
    ``Subspace(basis, space)``."""
    return Subspace(basis, space).gram()


def certifies_independence(data: GramData) -> bool:
    """True guarantees linear independence of the set behind ``data``.

    False is inconclusive: independent sets can have a zero Gram determinant
    in a general normed space."""
    return not data.is_degenerate


class Subspace:
    """Ordered basis of nonzero vectors plus its ambient space.

    The subspace keeps its Gram data and the solver of projections onto it,
    one callable taking y to the coefficients: the substitution of the
    values [g(x_i, y)] of the maps its rows came from.  The first projection
    or :meth:`gram` call eliminates the Gram rows and sets the solver unless
    one was set earlier (a left g-orthonormalization step sets
    :func:`_forward` on its starred rows); a degenerate subspace gets ().
    Only :meth:`gram` builds the data, after a projection from rows computed
    again.  The solver is set before the data, so a thread that sees the
    data sees the solver; two threads racing on a fresh subspace at worst
    compute both twice.  It holds about the size of its basis once more."""

    def __init__(self, basis: Sequence[SparseVector], space: Space):
        self.basis = _basis(basis)
        self.space = space
        self._gram = None
        self._solver = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _factor(self) -> tuple:
        """(rows, scales, factors) of ``semi_inner._gram_rows``, eliminated;
        sets the solver if none was set, () when the rows are degenerate."""
        maps, rows, scales = _gram_rows(self.basis, self.space)
        if any(row[i] == 0 for i, row in enumerate(rows)):  # g(x, x) = |x|^2 underflowed
            raise NumericalRangeError("a squared norm g(x_i, x_i) of the basis underflows to 0")
        factors = _eliminate(rows, scales)
        singular = not factors.sign if factors.scales else _singular(_det(factors), rows)
        if self._solver is None:
            self._solver = () if singular else lambda y: _substitute(factors, [g_x(y) for g_x in maps])
        return rows, scales, factors

    def gram(self) -> GramData:
        """Gram data of the basis: its rows, exact ones as Fractions, and determinant."""
        data = self._gram
        if data is None:
            rows, scales, factors = self._factor()
            if scales:  # entry k of row i is R_ik / (S_i * D_k)
                rows = [[Fraction(v, s * d) for v, (_, d) in zip(row, scales)] for (s, _), row in zip(scales, rows)]
            # tuple() of a list takes the exact size from CPython's tuple free
            # lists; of an iterator it can strand freed tuples in another's.
            data = self._gram = GramData(tuple([tuple(row) for row in rows]), _det(factors))
        return data

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, space={self.space!r})"


@dataclass(frozen=True)
class Projection:
    """Result of projecting y: coefficients c with y_S = sum c_k x_k,
    the projected vector, and the residual y - y_S."""

    coefficients: Tuple[Coeff, ...]
    projected: SparseVector
    residual: SparseVector


def _project(y: SparseVector, sub: Subspace) -> tuple:
    """The coefficients c and y_S = sum_k c_k * x_k of :func:`project`,
    without its residual: the angles read y_S alone.

    The subspace's solver takes y to c: once it is built, this costs d
    g-values of the maps it keeps, no new map and O(d^2) substitution.

    y_S over the nonzero c_k is one ``SparseVector._combination``, as
    ``add`` and ``sub`` are."""
    if sub._solver is None:
        sub._factor()
    if not sub._solver:
        raise DegenerateSubspaceError("Gram determinant is zero; the projection is undefined")
    coeffs = sub._solver(y)
    return coeffs, SparseVector._combination([(c, xk) for c, xk in zip(coeffs, sub.basis) if c])


def project(y: SparseVector, sub: Subspace) -> Projection:
    """g-orthogonal projection of y onto the subspace's basis: the
    coefficients and y_S of :func:`_project`, and the residual y - y_S, so
    two vectors built per call."""
    coeffs, projected = _project(y, sub)
    return Projection(tuple(coeffs), projected, y.sub(projected))


def left_orthonormalize(basis: Sequence[SparseVector], space: Space) -> list:
    """Gram-Schmidt-like recursion producing unit vectors x_k* with
    g(x_k*, x_l*) = 0 for k < l.  Order-sensitive by construction.

    Step k projects x_k onto x_1*, ..., x_{k-1}* through :func:`project`.
    In an lp space the step's subspace gets the rows kept so far and the
    maps kept so far, so the step makes only the k - 1 right-hand-side
    g-values and solves below a unit diagonal by :func:`_forward`, with no
    Gram data, determinant or elimination.  The row
    g(x_k*, x_j*), j < k, costs k - 1 more g-values, and the map
    y -> g(x_k*, y) kept for the right-hand sides of the later steps comes
    with it (both from ``semi_inner._row``), built only when the row has
    entries and another vector follows.  x_1* has no row, so its values are
    single g calls, each weighing the shared support alone: (d - 1)^2
    g-values, d - 2 maps and d - 1 single g calls for d >= 2 vectors, so
    2d - 3 norm passes over starred vectors.
    Under a black-box norm each step computes its full Gram matrix, as g
    there need not be additive in its second argument.

    In exact mode the residual y_k and x_k* = y_k / |y_k| keep the int form
    of exact vectors: the rescaling multiplies the numerators by one int and
    divides by one gcd, with no Fraction per entry, and the rows are ints.  A
    float y_k is dependent when |y_k| <= 1e-12 |x_k|; an x_k so small that
    such a y_k would be subnormal is scaled by 2^-e first, e the exponent of
    |x_k|, so the step runs on normal floats and 1 / |y_k| stays finite."""
    basis = tuple(basis)
    triangular = isinstance(space, LpSpace)
    out = []
    # lp spaces only: rows[k] = [g(x_k*, x_j*) for j < k] (over scales[k]), maps[k] = y -> g(x_k*, y)
    rows, scales, maps = [], [], []
    for k, xk in enumerate(basis):
        if xk.backend == FLOAT:
            nx = float(norm(xk, space))
            if nx == 0.0:
                raise NumericalRangeError(f"the norm of vector {k + 1} underflows to 0")
            if 1e-12 * nx < sys.float_info.min:  # run the step on x_k / 2^e, of norm m in [1/2, 1),
                m, e = math.frexp(nx)  # in two exact halves, as 2^-e can exceed the float range
                xk, nx = xk.scale(math.ldexp(1.0, -e // 2)).scale(math.ldexp(1.0, (1 - e) // 2)), m
        if k == 0:
            residual = xk
        else:
            sub = Subspace(out, space)
            if triangular:  # sub serves this step alone, before the lists grow
                sub._solver = lambda y: _forward(rows, scales, [g_x(y) for g_x in maps])
            residual = project(xk, sub).residual
        if residual.is_zero:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        r = norm(residual, space)
        if k and xk.backend == FLOAT and r <= 1e-12 * nx:  # x_1 has no predecessors
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        starred = residual.scale(Fraction(1) / r)
        if triangular and k < len(basis) - 1:
            g_k, row = _row(starred, out, space) if k else ((lambda y, x=starred: g(x, y, space)), [])
            if starred.backend == EXACT:
                row, scale = _reduced(row, starred)
                scales.append(scale)
            rows.append(row)
            maps.append(g_k)
        out.append(starred)
    return out
