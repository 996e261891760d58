"""Shared helpers for the test suite: random instance generators, the
classical p=2 oracles (numpy/scipy) the g-machinery is checked against, a
cofactor-expansion determinant to check the elimination against, the
elimination of the augmented matrix that the factored solve must reproduce
bit for bit, the projection as the literal cofactor expansion of the bordered determinant, the
straightforward forms of g and float tau that the linear-time kernels must
reproduce exactly, float l1 norms and g by sum(abs(v)) and sign negation that
the general lp formula must reproduce at p = 1, l1 tau and g on the vectors
x + t*y that both tau routes must reproduce, oracle tau on the vectors
x + t*y that the one-pass step vectors must reproduce, the earlier tau routes
(whole norms at unscaled steps, oracle quotients without Richardson steps)
that the current ones must stay close to at ordinary magnitudes, the exact sums and
norms on Fraction objects that the integer kernels must reproduce, the
projection assembled by successive vector additions that the one-pass
assembly must reproduce bit for bit, the three round-off rules of the
angles that their one clamp must reproduce, left g-orthonormalization by a fresh
projection per step that the incremental one must reproduce, the same
recursion with every right-hand side a single g call and Gram data that keeps
no maps, which the kept maps must reproduce bit for bit, and the paper's
explicit sum for cos^2 as a literal multi-index sum."""

import math
import sys
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from gangle import (
    BackendError,
    ConsistencyError,
    DegenerateSubspaceError,
    DependenceError,
    EstimationFailureError,
    LpSpace,
    NumericalRangeError,
    SparseVector,
    Subspace,
    TauPair,
    ZeroVectorError,
    g,
    left_orthonormalize,
    lp_norm,
    norm,
    project,
    sgn,
)
from gangle.angles import _CLAMP_SLACK
from gangle.gram import _eliminate, _forward, _substitute, det
from gangle.semi_inner import (
    _ORACLE_K_RANGE,
    _ORACLE_REL_TOL,
    _exponent,
    _reduced,
    _row,
    _tau_central,
    g_functional,
)
from gangle.vectors import FLOAT, exact_sqrt

MAX_INDEX = 6


def rand_exact_vector(rng, max_index=MAX_INDEX, max_terms=4, nonzero=True):
    """Random finitely supported vector with small rational coefficients."""
    while True:
        n = rng.randint(1, max_terms)
        idxs = rng.sample(range(1, max_index + 1), n)
        vec = SparseVector(
            (i, Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for i in idxs
        )
        if not nonzero or not vec.is_zero:
            return vec


def rand_float_vector(rng, max_index=MAX_INDEX, max_terms=4, nonzero=True):
    while True:
        n = rng.randint(1, max_terms)
        idxs = rng.sample(range(1, max_index + 1), n)
        vec = SparseVector((i, rng.uniform(-5.0, 5.0)) for i in idxs)
        if not nonzero or not vec.is_zero:
            return vec


def rand_vector(rng, backend, **kw):
    if backend == "exact":
        return rand_exact_vector(rng, **kw)
    return rand_float_vector(rng, **kw)


def rand_independent_basis(rng, backend, dim, max_index=MAX_INDEX):
    """Random basis that is linearly independent in the plain algebraic sense
    (full column rank as a dense matrix)."""
    while True:
        basis = [rand_vector(rng, backend, max_index=max_index) for _ in range(dim)]
        dense = np.array([v.to_float().to_dense(max_index) for v in basis], dtype=float)
        if np.linalg.matrix_rank(dense, tol=1e-8) == dim:
            return basis


def rand_subspace(rng, backend, dim, space, max_index=MAX_INDEX):
    """Random subspace whose Gram determinant is comfortably nonsingular."""
    while True:
        basis = rand_independent_basis(rng, backend, dim, max_index)
        sub = Subspace(basis, space)
        data = sub.gram()
        if not data.is_degenerate:
            scale = abs(float(prod(row[i] for i, row in enumerate(data.matrix))))
            if scale == 0 or abs(float(data.det)) > 1e-6 * scale:
                return sub


def rational_orthogonal(rng, n):
    """Random n-by-n orthogonal matrix with rational entries: the Cayley
    transform Q = (I - A)(I + A)^-1 of a random skew-symmetric A."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            a[j][i] = -a[i][j]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # Q^T = (I - A)^-1 (I + A), so row k of Q solves (I - A) q = column k of I + A
    minus = [[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
    factors = _eliminate(minus)
    return [_substitute(factors, [eye[i][k] + a[i][k] for i in range(n)]) for k in range(n)]


def rand_rational_l2_basis(rng, dim, n=4):
    """Random exact basis of dim vectors in the first n coordinates whose left
    l2-orthonormalization is rational: x_k = c_k q_k + sum_{l<k} a_l q_l for
    orthonormal rational q_l, so the k-th residual is c_k q_k."""
    q = rng.sample(rational_orthogonal(rng, n), dim)
    basis = []
    for k in range(dim):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3)))
        dense = [sum((c * q[l][i] for l, c in enumerate(coeffs)), Fraction(0)) for i in range(n)]
        basis.append(SparseVector.from_dense(dense))
    return basis


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion (reference path)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _eliminate_augmented(a):
    """Reduce the n rows of ``a`` (n or more columns) in place to upper
    triangular form in their first n columns, by Gaussian elimination with
    partial pivoting.  Returns the sign of the row permutation, or 0 when a
    pivot column is zero."""
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


def det_augmented(rows):
    """Determinant from the diagonal of the augmented-matrix elimination.  A
    float product of nonzero pivots that is 0 or not finite raises
    NumericalRangeError, as ``det`` documents."""
    a = [list(r) for r in rows]
    sign = _eliminate_augmented(a)
    if sign == 0:
        return a[0][0] * 0
    value = sign * prod(a[i][i] for i in range(len(a)))
    if isinstance(value, float) and not (value and math.isfinite(value)):
        raise NumericalRangeError(f"the product of nonzero float pivots is {value}")
    return value


def solve_augmented(rows, rhs):
    """Solve a square system by eliminating the augmented matrix [A | rhs],
    then substituting backward: the oracle for the factored solve."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not _eliminate_augmented(a):
        raise DegenerateSubspaceError("singular linear system")
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def project_bordered(y: SparseVector, sub: Subspace) -> SparseVector:
    """Literal cofactor expansion of the bordered determinant whose first row
    carries the basis vectors, its minors by :func:`det_cofactor`.
    Cross-check oracle; n <= 5 only, as the expansion takes n! terms."""
    n = sub.dim
    if n > 5:
        raise ValueError("bordered cofactor expansion is provided only for n <= 5")
    data = sub.gram()
    if data.is_degenerate:
        raise DegenerateSubspaceError("Gram determinant is zero")
    rhs = [g(xi, y, sub.space) for xi in sub.basis]
    # Numeric part of the bordered matrix: column 0 holds g(x_i, y), columns
    # 1..n hold the Gram matrix.  Expanding along the first row (0, x_1..x_n):
    # y_S = -(1/Gamma) * sum_j (-1)^j x_j * minor(0, j).
    numeric = [[rhs[i]] + list(data.matrix[i]) for i in range(n)]
    result = SparseVector()
    for j in range(1, n + 1):
        minor = [[row[c] for c in range(n + 1) if c != j] for row in numeric]
        term = sub.basis[j - 1].scale(det_cofactor(minor))
        result = result.add(term.scale(-1) if j % 2 == 1 else term)
    return result.scale(Fraction(-1) / data.det)


def starred_subspace(basis, space):
    """The subspace of the left g-orthonormal basis of ``basis`` with the
    solver ``left_orthonormalize`` projects onto it with: the rows of
    ``semi_inner._row`` below the diagonal, ints of ``semi_inner._reduced``
    over their scales in exact mode, solved by forward substitution below a
    unit diagonal, with single g calls for x_1* and the map of each later
    starred vector's row."""
    starred = left_orthonormalize(basis, space)
    sub = Subspace(starred, space)
    rows, scales, maps = [], [], []
    for k, x in enumerate(starred):
        g_x, row = _row(x, starred[:k], space) if k else ((lambda y: g(starred[0], y, space)), [])
        if x.backend != FLOAT:
            row, scale = _reduced(row, x)
            scales.append(scale)
        rows.append(row)
        maps.append(g_x)
    sub._solver = lambda y: _forward(rows, scales, [g_x(y) for g_x in maps])
    return sub


def clamp_unit_by_branches(v):
    """cos^2 forced into [0, 1]: an exact value is checked, a float within
    round-off slack of the range becomes its bound."""
    if not isinstance(v, float):
        if v < 0 or v > 1:
            raise ConsistencyError(f"cos^2 = {v} falls outside [0, 1]")
        return v
    if -_CLAMP_SLACK <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + _CLAMP_SLACK:
        return 1.0
    if v < 0.0 or v > 1.0:
        raise ConsistencyError(f"cos^2 = {v} falls outside [0, 1] beyond round-off slack")
    return v


def clamp_cosine_by_max_min(cos):
    """A float cosine checked against [-1, 1] with round-off slack, then
    clamped by ``max`` and ``min``."""
    if cos < -1.0 - _CLAMP_SLACK or cos > 1.0 + _CLAMP_SLACK:
        raise ConsistencyError(f"cosine {cos} falls outside [-1, 1] beyond round-off slack")
    return max(-1.0, min(1.0, cos))


def clamp_area_by_sign(value_sq, scale):
    """A squared area |x|^2 |y|^2 - |g(x,y)| |g(y,x)|, with ``scale`` the
    product of the squared norms: a float below 0 within slack of ``scale``
    becomes 0.0."""
    if value_sq < 0:
        if isinstance(value_sq, float) and abs(value_sq) <= _CLAMP_SLACK * max(scale, 1e-300):
            return 0.0
        raise ConsistencyError(f"squared area {value_sq} is negative beyond round-off slack")
    return value_sq


def project_by_successive_adds(coefficients, basis):
    """y_S = sum c_k x_k assembled as ``projected.add(x_k.scale(c_k))``, one
    vector per step."""
    projected = SparseVector()
    for c, xk in zip(coefficients, basis):
        projected = projected.add(xk.scale(c))
    return projected


def exact_sum_by_fractions(pairs):
    """Sum of n/d over (n, d) int pairs with one Fraction per term."""
    return sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def lp_norm_by_fractions(x, p):
    """Exact p-norm, p in {1, 2}, summed on Fraction objects; an irrational
    2-norm raises BackendError as ``lp_norm`` does."""
    if p == 1:
        return sum((abs(v) for _, v in x), Fraction(0))
    root = exact_sqrt(norm_sq_by_fractions(x))
    if root is None:
        raise BackendError("the 2-norm of this vector is irrational")
    return root


def norm_sq_by_fractions(x):
    """Exact squared 2-norm summed on Fraction objects."""
    return sum((v * v for _, v in x), Fraction(0))


def l1_norm_by_abs(x):
    """Float l1 norm as sum(abs(v)); a sum beyond the float range raises
    NumericalRangeError."""
    value = sum(abs(v) for _, v in x)
    if value == math.inf:
        raise NumericalRangeError("the 1-norm of this vector overflows the float range")
    return value


def g_l1_by_signs(x, y):
    """Float l1 g as |x|_1 times the sum of y's entries on x's support, each
    negated where x_i < 0; a value beyond the float range raises
    NumericalRangeError."""
    if x.is_zero:
        return 0.0
    xs = dict(x.items())
    value = l1_norm_by_abs(x) * sum((v if xs[i] > 0 else -v for i, v in y if i in xs), 0.0)
    if not math.isfinite(value):
        raise NumericalRangeError("g(x, y) overflows the float range")
    return value


def _l1_tstar(x, y):
    """t* = min |xi|/|yi| / 2 over the shared support, or 1 without one."""
    ys = dict(y.items())
    shared = [(xi, ys[i]) for i, xi in x if i in ys]
    return min(abs(xi) / abs(yi) for xi, yi in shared) / 2 if shared else 1


def tau_l1_by_vectors(x, y):
    """l1 tau pair by its quotients at t = +-t* on the vectors x + t*y,
    summing only the terms that change, |(x + t*y)_i| - |x_i| over supp y in
    index order.  Exact pairs are summed on Fraction objects; float pairs
    take ``add``/``scale``, the vector route float tau replaces."""
    xs = dict(x.items())
    tstar = _l1_tstar(x, y)

    def quotient(t):
        step = dict(x.add(y.scale(t)).items())
        return sum(abs(step.get(i, 0)) - abs(xs.get(i, 0)) for i, _ in y) / t

    return TauPair(quotient(tstar), quotient(-tstar), 0)


def tau_l1_by_full_norms(x, y):
    """l1 tau pair by the quotients (|x + t*y|_1 - |x|_1) / t at t = +-t*
    over the whole vectors (``l1_norm_by_abs`` in float mode), where |x|_1
    can absorb the step: the route float l1 tau took before it summed the
    changed terms alone."""
    n1 = (lambda v: lp_norm_by_fractions(v, 1)) if x.backend == "exact" else l1_norm_by_abs
    tstar = _l1_tstar(x, y)
    n0 = n1(x)
    plus = (n1(x.add(y.scale(tstar))) - n0) / tstar
    minus = (n1(x.add(y.scale(-tstar))) - n0) / (-tstar)
    return TauPair(plus, minus, 0)


def g_from_norm_l1_by_vectors(x, y):
    """Float l1 g by its definition from ``tau_l1_by_vectors`` and
    ``l1_norm_by_abs``, in the operation order of ``g_from_norm``."""
    pair = tau_l1_by_vectors(x, y)
    return (pair.tau_plus + pair.tau_minus) / 2 * l1_norm_by_abs(x)


def g_explicit_by_get(x, y, p):
    """The lp closed form of g with y read through ``SparseVector.get``, in
    the operation order of ``g_explicit`` (exact for p in {1, 2}, summed on
    Fraction objects)."""
    if x.is_zero:
        return 0.0 if "float" in (x.backend, y.backend) else Fraction(0)
    if x.backend == "exact":
        if p == 1:
            return lp_norm_by_fractions(x, 1) * sum((sgn(v) * y.get(i) for i, v in x), Fraction(0))
        return sum((v * y.get(i) for i, v in x), Fraction(0))
    p = float(p)
    if p == 2:
        return 1.0 * sum(v * y.get(i) for i, v in x)
    nx = lp_norm(x, p)
    return nx * sum((abs(v) / nx) ** (p - 1.0) * sgn(v) * y.get(i) for i, v in x)


def tau_float_by_vectors(x, y, p):
    """(value, step) of float tau at p > 1 with x - h*y and 2*h*y taken from
    the vectors ``x.add(y.scale(-h))`` and ``y.scale(2 * h)`` at every step.
    |x + t*y|^p is the sum of |x_i|^p off supp y, taken once by
    ``math.fsum`` (x_i * x_i at p = 2), plus S(t) = sum |(x + t*y)_i|^p over the shared support
    in index order (off supp x the term |t*y_i|^p is o(t) and left out).
    Each |a + h*b|^p - |a - h*b|^p is |a - h*b|^p times
    expm1(p * log1p(2*h*b / (a - h*b))), and |x + h*y| - |x - h*y| is
    |x - h*y| * expm1(log1p((S(h) - S(-h)) / |x - h*y|^p) / p), at the
    steps scaled by 2^(e_x - e_y), e_x and e_y the binary exponents of |x|
    and |y| (of a largest entry where a norm underflows), capped at the
    power of two at or below min |x_i|/|y_i| over the shared support."""
    p = float(p)
    xs, ys = dict(x.items()), dict(y.items())
    shared = [i for i in ys if i in xs]
    power = (lambda v: v * v) if p == 2 else (lambda v: abs(v) ** p)
    off = math.fsum([power(v) for i, v in xs.items() if i not in ys])

    def delta(h):
        below, twice = dict(x.add(y.scale(-h)).items()), dict(y.scale(2 * h).items())
        powers = [power(below[i]) for i in shared]
        rise = sum(w * math.expm1(p * math.log1p(twice[i] / below[i])) for w, i in zip(powers, shared))
        low = off + sum(powers)
        return low ** (1.0 / p) * math.expm1(math.log1p(rise / low) / p)

    ny = float(lp_norm(y, p))
    nx = (off + sum(power(xs[i]) for i in shared)) ** (1.0 / p)
    unit = math.ldexp(1.0, _exponent(nx, x) - _exponent(ny, y))
    radius = min((abs(xs[i]) / abs(ys[i]) for i in shared), default=math.inf)
    if radius < unit:
        unit = math.ldexp(1.0, math.frexp(radius)[1] - 1)
    return _tau_central(delta, ny, unit)


def tau_float_by_unscaled_steps(x, y, p):
    """(value, step) of float tau at p > 1 from the whole norm
    ``lp_norm(x.add(y.scale(t)), p)`` at the unscaled steps 2^-k: the route
    float tau took before it summed the changed terms at scaled steps."""
    p = float(p)

    def f(t):
        return lp_norm(x.add(y.scale(t)), p)

    return _tau_central(lambda h: f(h) - f(-h), float(lp_norm(y, p)), 1.0)


def tau_oracle_by_vectors(x, y, space, richardson=True):
    """Oracle tau with |x + t*y| evaluated on the vector ``x.add(y.scale(t))``
    at every step, the route the one-pass step vectors replace, with the
    library's step schedule, stopping rules and errors: the steps are
    +-2^(e_x - e_y - k), e_x and e_y the binary exponents of |x| and |y|
    (+-2^(min(e_x - e_y, 0) - k) for exact vectors), and a failing side
    reports its last two quotients.  With
    ``richardson=False`` only the first rule, agreeing successive quotients,
    stops a side, as it did before the Richardson steps were added."""
    n0 = norm(x, space)
    ny = float(norm(y, space))
    tol = _ORACLE_REL_TOL * max(ny, 1e-300)
    shift = _exponent(n0, x) - _exponent(ny, y)
    exact = "float" not in (x.backend, y.backend)
    if exact:
        shift = min(shift, 0)

    def one_sided(sign):
        quotients = []
        prev_r = None
        for k in _ORACLE_K_RANGE:
            if exact:
                t = Fraction(sign) * Fraction(2) ** (shift - k)
            elif -1074 <= shift - k <= 1023:
                t = sign * 2.0 ** (shift - k)
            else:
                raise NumericalRangeError(f"the oracle step 2^{shift - k} is beyond the float range")
            q = (norm(x.add(y.scale(t)), space) - n0) / t
            prev = quotients[-1] if quotients else None
            quotients.append(q)
            if prev is not None:
                if abs(q - prev) < tol:
                    return q, abs(t)
                r = 2 * q - prev
                if richardson and prev_r is not None and abs(r - prev_r) < tol:
                    return (4 * r - prev_r) / 3, abs(t)
                prev_r = r
        raise EstimationFailureError(
            f"one-sided quotient for norm oracle {space.name!r} did not stabilize to {tol:g}",
            last_two=tuple(quotients[-2:]),
        )

    plus, step_p = one_sided(+1)
    minus, step_m = one_sided(-1)
    return TauPair(plus, minus, max(step_p, step_m))


def _normal_step(k, xk, space):
    """x_k and its float norm, or None for an exact x_k.  A float x_k so small
    that a residual of 1e-12 |x_k| would be subnormal is divided by 2^e, e
    the exponent of |x_k|, so the step runs on normal floats."""
    if xk.backend != FLOAT:
        return xk, None
    nx = float(norm(xk, space))
    if nx == 0.0:
        raise NumericalRangeError(f"the norm of vector {k + 1} underflows to 0")
    if 1e-12 * nx >= sys.float_info.min:
        return xk, nx
    m, e = math.frexp(nx)
    half = -e // 2  # 2^-e itself can exceed the float range
    return xk.scale(math.ldexp(1.0, half)).scale(math.ldexp(1.0, -e - half)), m


def left_orthonormalize_by_projection(basis, space):
    """Gram-Schmidt-like recursion producing unit vectors x_k* with
    g(x_k*, x_l*) = 0 for k < l, projecting onto a fresh ``Subspace`` of the
    starred vectors, with its full Gram matrix, at every step."""
    out = []
    for k, xk in enumerate(basis):
        xk, nx = _normal_step(k, xk, space)
        if k == 0:
            residual = xk
        else:
            residual = project(xk, Subspace(out, space)).residual
        if residual.is_zero:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        r = norm(residual, space)
        if nx is not None and r <= 1e-12 * nx:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        out.append(residual.scale(Fraction(1) / r))
    return out


def left_orthonormalize_by_single_g(basis, space):
    """Left g-orthonormalization of an lp space with every right-hand side
    g(x_j*, x_k) a single g call: the row g(x_k*, x_j*), j < k, comes from
    one map ``g_functional(x_k*, space)`` that is then dropped, and each
    step's unit lower-triangular system, from the rows alone, as Fractions
    or floats, and keeping no maps, is solved by forward substitution."""
    basis = list(basis)
    out, rows = [], [[]]
    for k, xk in enumerate(basis):
        xk, nx = _normal_step(k, xk, space)
        if k == 0:
            residual = xk
        else:
            rhs = [g(xj, xk, space) for xj in out]
            coeffs = _forward(rows, (), rhs)
            residual = xk.sub(SparseVector._combination([(c, xj) for c, xj in zip(coeffs, out) if c]))
        if residual.is_zero:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        r = norm(residual, space)
        if k and nx is not None and r <= 1e-12 * nx:  # x_1 has no predecessors
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        starred = residual.scale(Fraction(1) / r)
        if 0 < k < len(basis) - 1:
            rows.append(list(map(g_functional(starred, space), out)))
        out.append(starred)
    return out


def cos_sq_explicit_sum_by_multi_index(u, V):
    """cos^2 of the line-vs-subspace angle by the explicit multi-index sum.

    Left g-orthonormalizes the basis of V, then accumulates, over the finite
    union of supports, weighted (t+1)-by-(t+1) determinants whose rows are the
    orthonormalized basis vectors and whose bottom row holds the coordinates
    of u.  Equals the projected-length ratio |u_V*|^2 / |u|^2 for the
    projection onto the orthonormalized basis.  t <= 3 only (the sum has t+1
    nested indices)."""
    space = V.space
    if not isinstance(space, LpSpace):
        raise ValueError("the explicit sum is defined for lp spaces only")
    t = V.dim
    if t > 3:
        raise ValueError("explicit sum limited to subspaces of dimension <= 3")
    if u.is_zero:
        raise ZeroVectorError("the line must be spanned by a nonzero vector")
    starred = left_orthonormalize(V.basis, space)
    p = space.p
    nu = norm(u, space)
    exact = not isinstance(nu, float)
    supports = [v.support for v in starred]
    outer_cols = sorted(set().union(*supports))

    def weight(vec, idx):
        v = vec.get(idx)
        if exact:
            if p == 1:
                return sgn(v)
            return v  # p == 2: |v| * sgn(v)
        return abs(v) ** (float(p) - 1.0) * sgn(v)

    total = 0
    for j_last in outer_cols:
        inner = 0
        for combo in product(*supports):
            w = 1
            for i, j_i in enumerate(combo):
                w *= weight(starred[i], j_i)
            cols = combo + (j_last,)
            rows = [[v.get(c) for c in cols] for v in starred]
            rows.append([u.get(c) for c in combo] + [0])
            inner += w * det(rows)
        total += abs(inner / nu) ** p
    if exact:
        return total * total if p == 1 else total
    return total ** (2.0 / float(p))


def to_array(vec, length=MAX_INDEX):
    return np.array(vec.to_float().to_dense(length), dtype=float)


def classical_projection(y, basis, length=MAX_INDEX):
    """Euclidean orthogonal projection via normal equations."""
    A = np.stack([to_array(v, length) for v in basis], axis=1)
    coeffs = np.linalg.solve(A.T @ A, A.T @ to_array(y, length))
    return A @ coeffs


def principal_angle_cosines(basis_u, basis_v, length=MAX_INDEX):
    """Cosines of the principal angles between two Euclidean subspaces."""
    from scipy.linalg import subspace_angles

    A = np.stack([to_array(v, length) for v in basis_u], axis=1)
    B = np.stack([to_array(v, length) for v in basis_v], axis=1)
    return np.cos(subspace_angles(A, B))
