"""Shared helpers for the test suite: random instance generators, the
classical p=2 oracles (numpy/scipy) the g-machinery is checked against, a
cofactor-expansion determinant to check the elimination against, the
projection as the literal cofactor expansion of the bordered determinant, the
straightforward forms of g and float tau that the linear-time kernels must
reproduce exactly, left g-orthonormalization by a fresh projection per step
that the incremental one must reproduce, and the paper's explicit sum for
cos^2 as a literal multi-index sum."""

from fractions import Fraction
from itertools import product

import numpy as np

from gangle import (
    DegenerateSubspaceError,
    DependenceError,
    LpSpace,
    SparseVector,
    Subspace,
    ZeroVectorError,
    g,
    left_orthonormalize,
    lp_norm,
    norm,
    project,
    sgn,
)
from gangle.gram import det, solve
from gangle.semi_inner import _tau_central

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
            scale = abs(float(data.diagonal_product))
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
    return [solve(minus, [eye[i][k] + a[i][k] for i in range(n)]) for k in range(n)]


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


def project_bordered(y: SparseVector, sub: Subspace) -> SparseVector:
    """Literal cofactor expansion of the bordered determinant whose first row
    carries the basis vectors.  Cross-check oracle; n <= 3 only."""
    n = sub.dim
    if n > 3:
        raise ValueError("bordered cofactor expansion is provided only for n <= 3")
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
        term = sub.basis[j - 1].scale(det(minor))
        result = result.add(term.scale(-1) if j % 2 == 1 else term)
    return result.scale(Fraction(-1) / data.det)


def g_explicit_by_get(x, y, p):
    """The lp closed form of g with y read through ``SparseVector.get``, in
    the operation order of ``g_explicit`` (exact for p in {1, 2})."""
    if x.is_zero:
        return 0.0 if "float" in (x.backend, y.backend) else Fraction(0)
    if x.backend == "exact":
        if p == 1:
            return lp_norm(x, 1) * sum((sgn(v) * y.get(i) for i, v in x), Fraction(0))
        return sum((v * y.get(i) for i, v in x), Fraction(0))
    p = float(p)
    s = sum(abs(v) ** (p - 1.0) * sgn(v) * y.get(i) for i, v in x)
    return lp_norm(x, p) ** (2.0 - p) * s


def tau_float_by_vectors(x, y, p):
    """(value, step) of float tau at p > 1 with |x + t*y| evaluated on the
    vector ``x.add(y.scale(t))`` at every step."""
    p = float(p)
    return _tau_central(lambda t: lp_norm(x.add(y.scale(t)), p), float(lp_norm(y, p)))


def left_orthonormalize_by_projection(basis, space):
    """Gram-Schmidt-like recursion producing unit vectors x_k* with
    g(x_k*, x_l*) = 0 for k < l, projecting onto a fresh ``Subspace`` of the
    starred vectors, with its full Gram matrix, at every step."""
    out = []
    for k, xk in enumerate(basis):
        if k == 0:
            residual = xk
        else:
            residual = project(xk, Subspace(out, space)).residual
        if residual.is_zero:
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        r = norm(residual, space)
        if isinstance(r, float) and r <= 1e-12 * max(float(norm(xk, space)), 1e-300):
            raise DependenceError(f"vector {k + 1} lies in the span of its predecessors")
        out.append(residual.scale(Fraction(1) / r))
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
