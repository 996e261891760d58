"""Metamorphic properties: relations between two runs of the library that
need no reference route.

A signed coordinate permutation, e_i -> s_i * e_pi(i) with s_i = +-1, is an
isometry of every lp space.  Applied to every vector, it must leave g, tau,
the projection coefficients and every cos^2 unchanged, or the same typed
error must be raised.  Exact values are compared with ``==``.  Float values
at p = 1.5 and 3 are compared within ``REL_TOL`` of their scale: |x| |y|
for g, |y| for tau, |y| / min |b_k| for the coefficients on a basis b_k,
1 for cos^2.  The round-off of a permuted summation order is far smaller.
The bases are diagonally dominant, so their Gram matrices are well
conditioned at every p.

Scaling by 2^a is exact in exact mode, and g is homogeneous in its first
argument, so exact l1 g_from_norm scales by exactly 2^a."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gangle import (
    GAngleError,
    LpSpace,
    SparseVector,
    Subspace,
    angle_line_subspace,
    angle_plane_subspace,
    cos_sq_explicit_sum,
    g,
    g_from_norm,
    norm,
    project,
    tau,
)

DIM = 8
REL_TOL = 1e-9
CASES = [("exact", 1), ("exact", 2), ("float", 1.5), ("float", 3.0)]


def _entries(exact):
    """Nonzero entries m or m/d, |m| <= 99, as Fractions or floats."""
    if exact:
        return st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 7))
    return st.integers(-99, 99).filter(bool).map(float)


def _vectors(exact):
    return st.dictionaries(st.integers(1, DIM), _entries(exact), min_size=1, max_size=6).map(SparseVector)


def _dominant_basis(data, exact, size):
    """``size`` vectors 100 * e_k plus entries |m| <= 99 / 7 or <= 3 on the
    coordinates after ``size``: diagonally dominant in every lp norm."""
    small = _entries(exact).map(lambda v: v / 7 if exact else v % 3 + 1)
    basis = []
    for k in range(1, size + 1):
        tail = data.draw(st.dictionaries(st.integers(size + 1, DIM), small, max_size=DIM - size))
        basis.append(SparseVector({k: Fraction(100) if exact else 100.0, **tail}))
    return basis


def _outcome(call):
    try:
        return call()
    except GAngleError as exc:
        return type(exc)


def _report(x, y, u, U, V, space, exact):
    """Every compared value, each with its scale (used in float mode only),
    or the typed error of its route."""
    S, P = Subspace(V, space), Subspace(U, space)
    size = (lambda v: 1) if exact else (lambda v: norm(v, space))

    def scaled(value, scale):
        return value if isinstance(value, type) else (value, scale)

    def coefficients():
        scale = size(y) / min(size(b) for b in V)
        return [(c, scale) for c in project(y, S).coefficients]

    def line():
        result = angle_line_subspace(u, S)
        return [(result.cos_sq, 1), (result.cos_sq_ratio, 1)]

    pair = _outcome(lambda: tau(x, y, space))
    return {
        "g": scaled(_outcome(lambda: g(x, y, space)), size(x) * size(y)),
        "tau": pair if isinstance(pair, type) else [(pair.tau_plus, size(y)), (pair.tau_minus, size(y))],
        "project": _outcome(coefficients),
        "line": _outcome(line),
        "plane": scaled(_outcome(lambda: angle_plane_subspace(P, S).cos_sq), 1),
        "explicit_sum": scaled(_outcome(lambda: cos_sq_explicit_sum(u, S)), 1),
    }


def _agree(a, b, exact):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_agree(p, q, exact) for p, q in zip(a, b))
    if isinstance(a, tuple) and isinstance(b, tuple):
        (va, scale), (vb, _) = a, b
        return va == vb if exact else abs(va - vb) <= REL_TOL * scale
    return a == b  # the same typed error


@pytest.mark.parametrize("backend,p", CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_signed_coordinate_permutation_leaves_every_result_unchanged(backend, p, data):
    exact = backend == "exact"
    space = LpSpace(p)
    x, y, u = (data.draw(_vectors(exact), name) for name in "xyu")
    U = _dominant_basis(data, exact, 2)
    V = _dominant_basis(data, exact, data.draw(st.integers(2, 3), "dim V"))
    perm = data.draw(st.permutations(range(1, DIM + 1)), "pi")
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=DIM, max_size=DIM), "s")

    def moved(v):
        return SparseVector({perm[i - 1]: signs[i - 1] * c for i, c in v})

    before = _report(x, y, u, U, V, space, exact)
    after = _report(*map(moved, (x, y, u)), [moved(v) for v in U], [moved(v) for v in V], space, exact)
    for key in before:
        assert _agree(before[key], after[key], exact), (key, before[key], after[key])


@settings(max_examples=200, deadline=None)
@given(x=_vectors(True), y=_vectors(True), a=st.integers(-60, 60))
def test_exact_l1_g_from_norm_scales_exactly_with_its_first_argument(x, y, a):
    factor = Fraction(2) ** a
    assert g_from_norm(x.scale(factor), y, LpSpace(1)) == factor * g_from_norm(x, y, LpSpace(1))
