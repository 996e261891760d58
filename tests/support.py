"""Shared helpers for the test suite: random instance generators, the
classical p=2 oracles (numpy/scipy) the g-machinery is checked against, a
cofactor-expansion determinant to check the elimination against, and the
straightforward forms of g and float tau that the linear-time kernels must
reproduce exactly."""

from fractions import Fraction

import numpy as np

from gangle import SparseVector, Subspace, lp_norm, sgn
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
