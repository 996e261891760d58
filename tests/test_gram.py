import math
import random
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gangle import (
    DegenerateSubspaceError,
    DependenceError,
    GAngleError,
    LpSpace,
    NumericalRangeError,
    OracleSpace,
    SparseVector,
    Subspace,
    ZeroVectorError,
    certifies_independence,
    g,
    gram,
    left_orthonormalize,
    norm,
    norm_sq,
    project,
)
from gangle.gram import GramData, _eliminate, _forward, _substitute, det
from gangle.semi_inner import g_functional

from support import (
    classical_projection,
    det_augmented,
    det_cofactor,
    left_orthonormalize_by_projection,
    left_orthonormalize_by_single_g,
    project_bordered,
    project_by_successive_adds,
    rand_float_vector,
    rand_rational_l2_basis,
    rand_subspace,
    rand_vector,
    solve_augmented,
    starred_subspace,
    to_array,
)

sv = SparseVector.from_dense
L1 = LpSpace(1)
L2_FLOAT = LpSpace(2.0)
MAX_NORM = OracleSpace(lambda x: max((abs(v) for _, v in x), default=0.0), "max")


# -- determinants and solving ----------------------------------------------


def test_det_matches_cofactor_expansion_up_to_4x4():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            assert det(rows) == det_cofactor(rows)


def test_det_and_solve_exact_on_int_matrices():
    d = det([[1, 2], [3, 4]])
    assert d == Fraction(-2) and type(d) is Fraction
    x = _substitute(_eliminate([[1, 2], [3, 4]]), [1, 1])
    assert x == [Fraction(-1), Fraction(1)]
    assert all(type(v) is Fraction for v in x)
    zero = det([[1, 2], [2, 4]])
    assert zero == 0 and type(zero) is Fraction
    # ints next to Fractions stay exact; next to a float the result is a float
    assert det([[Fraction(1, 2), 1], [3, 4]]) == Fraction(-1)
    assert type(det([[1.0, 2], [3, 4]])) is float


@pytest.mark.parametrize("one", [Fraction(1), 1.0], ids=["exact", "float"])
def test_solve_singular_system_raises(one):
    with pytest.raises(DegenerateSubspaceError):
        _substitute(_eliminate([[one, 2 * one], [2 * one, 4 * one]]), [one, one])


def bits(values):
    """Type and round-trip text of each value: equal for equal bits (the
    sign of a float zero included)."""
    return [(type(v), repr(v)) for v in values]


def outcome(solver, rows, rhs):
    try:
        return bits(solver(rows, rhs))
    except DegenerateSubspaceError:
        return "singular"


def det_outcome(determinant, rows):
    """The bits of a determinant, or "range" where it raises
    NumericalRangeError: nonzero float pivots whose product is 0 or not
    finite."""
    try:
        return bits([determinant(rows)])
    except NumericalRangeError:
        return "range"


FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
EXACTS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def systems(draw, entries):
    """A square matrix and several right-hand sides of one scalar kind."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    rhss = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    return rows, rhss


def _combined(draw, rows, weights):
    """``rows`` with one row replaced by a combination of the others drawn
    from ``weights``: a singular matrix, or a dependent basis."""
    r = draw(st.integers(0, len(rows) - 1))
    ws = draw(st.lists(weights, min_size=len(rows), max_size=len(rows)))
    combination = [
        sum(w * row[c] for k, (w, row) in enumerate(zip(ws, rows)) if k != r)
        for c in range(len(rows[0]))
    ]
    return rows[:r] + [combination] + rows[r + 1 :]


@st.composite
def wide_exact_systems(draw):
    """Up to 8-by-8, all ints or Fractions of mixed denominators, and half
    of them singular: one row a rational (or, for ints, integer) combination
    of the others, so the type of a zero determinant is checked too."""
    ints = draw(st.booleans())
    entries = st.integers(-9, 9) if ints else st.fractions(-9, 9, max_denominator=12)
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        weights = st.integers(-3, 3) if ints else st.fractions(-3, 3, max_denominator=5)
        rows = _combined(draw, rows, weights)
    rhss = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    return rows, rhss


@settings(max_examples=150, deadline=None)
@given(st.one_of(systems(FLOATS), systems(EXACTS), wide_exact_systems()))
# FLOATS draws subnormal and near-subnormal entries, whose pivots multiply to 0
@example(([[0.0, 1.667739056261769e-301], [1.667739056261769e-301, 0.0]], [[1.0, 1.0]]))
@example(([[0.0, 4.870167263712727e-189], [2.2250738585e-313, 0.0]], [[1.0, 1.0]]))
def test_one_factorization_solves_like_the_augmented_elimination(system):
    rows, rhss = system
    factors = _eliminate(rows)
    assert det_outcome(det, rows) == det_outcome(det_augmented, rows)
    for rhs in rhss:
        expected = outcome(solve_augmented, rows, rhs)
        assert outcome(lambda _, b: _substitute(factors, b), rows, rhs) == expected


def test_the_factored_solve_pivots_like_the_augmented_elimination():
    rows = [[0.0, 1.0, 2.0], [1e-3, 0.5, 1.0], [2.0, -1.0, 0.5]]
    factors = _eliminate(rows)
    assert list(factors.order) == [2, 0, 1]  # column 0 pivots on row 2, column 1 on row 0
    assert factors.sign == 1
    rhs = [1.0, 0.1, -2.0]
    assert bits(_substitute(factors, rhs)) == bits(solve_augmented(rows, rhs))


@st.composite
def unit_lower_systems(draw, entries, backend):
    n = draw(st.integers(1, 6))
    below = [draw(st.lists(entries, min_size=k, max_size=k)) for k in range(n)]
    rhss = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    return below, rhss


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    # -0.0 + 0.0 is 0.0: a right-hand side of -0.0 would make the augmented
    # back substitution's 0 * x terms flip the sign of a zero solution
    unit_lower_systems(st.floats(-1.0, 1.0).map(lambda v: v + 0.0), "float"),
    unit_lower_systems(st.fractions(min_value=-1, max_value=1, max_denominator=8), "exact"),
))
def test_forward_substitution_solves_unit_lower_gram_data_like_the_elimination(system):
    """The rows below the diagonal, as unit lower-triangular factors, solve
    like the elimination of the matrix padded with the ints 1 and 0."""
    below, rhss = system
    n = len(below)
    matrix = [row + [1] + [0] * (n - 1 - k) for k, row in enumerate(below)]
    assert det_augmented(matrix) == 1
    for rhs in rhss:
        assert bits(_forward(below, (), rhs)) == bits(solve_augmented(matrix, rhs))


@st.composite
def int_unit_lower_systems(draw):
    """Int rows below a unit diagonal with their scales (S_k, D_k), and
    exact right-hand sides."""
    n = draw(st.integers(1, 6))
    below = [draw(st.lists(st.integers(-99, 99), min_size=k, max_size=k)) for k in range(n)]
    scales = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=n, max_size=n))
    rhs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=n, max_size=n)
    return below, scales, draw(st.lists(rhs, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(int_unit_lower_systems())
def test_int_forward_substitution_solves_unit_lower_gram_data_like_the_elimination(system):
    """Int rows R_kj over the scales (S_k, D_k), as unit lower-triangular
    factors, stand for the entries R_kj / (S_k * D_j): they solve like the
    elimination of that matrix padded with the ints 1 and 0."""
    below, scales, rhss = system
    n = len(below)
    matrix = [
        [Fraction(v, s * d) for v, (_, d) in zip(row, scales)] + [1] + [0] * (n - 1 - k)
        for k, (row, (s, _)) in enumerate(zip(below, scales))
    ]
    for rhs in rhss:
        assert bits(_forward(below, tuple(scales), rhs)) == bits(solve_augmented(matrix, rhs))


def test_gram_data_fields_equality_and_repr_ignore_the_factors():
    """Gram data is a plain record; the subspace keeps its solver, the
    substitution on the factors of its rows of the values of its maps."""
    assert [f.name for f in fields(GramData)] == ["matrix", "det"]
    sub = Subspace([sv([1, 2]), sv([0, 1, 1])], L1)
    data = sub.gram()
    assert list(vars(data)) == ["matrix", "det"]
    assert list(vars(gram(sub.basis, L1))) == ["matrix", "det"]
    bare = GramData(data.matrix, data.det)
    assert bare == data and hash(bare) == hash(data) and repr(bare) == repr(data)
    assert repr(data) == f"GramData(matrix={data.matrix!r}, det={data.det!r})"
    _, _, factors = sub._factor()  # the same rows eliminated again; the solver stays
    assert factors.sign == 1
    y = sv([1, 0, 3])
    assert sub._solver(y) == _substitute(factors, [g(x, y, L1) for x in sub.basis])


# -- gram -------------------------------------------------------------------


# A float l2 basis whose Gram determinant, about 1e320, overflows; scaled by
# 1e-100 it underflows to 0.  Both Gram matrices are well conditioned.
WIDE_RANGE_BASIS = [(1e40, 1e39), (0.0, 1e40), (2e39, 0.0, 1e40), (0.0, 0.0, 0.0, 1e40)]


@pytest.mark.parametrize("scale, pivot", [(1.0, 1e200), (1e-100, 1e-200)], ids=["overflow", "underflow"])
def test_a_float_determinant_beyond_the_float_range_raises(scale, pivot):
    basis = [sv([v * scale for v in entries]) for entries in WIDE_RANGE_BASIS]
    with pytest.raises(NumericalRangeError, match="determinant"):
        gram(basis, L2_FLOAT)
    with pytest.raises(NumericalRangeError, match="determinant"):
        project(sv([1.0, 1.0]), Subspace(basis, L2_FLOAT))
    with pytest.raises(NumericalRangeError, match="determinant"):
        det([[pivot, 0.0], [0.0, pivot]])
    assert det([[1.0, 1.0], [1.0, 1.0]]) == 0.0  # a zero pivot is a zero determinant


def test_float_degeneracy_does_not_form_the_diagonal_product():
    # det = 1.024e305 is finite, the diagonal product 1e312 is not
    basis = [sv([1e78]), sv([1e78, 3.2e74])]
    data = gram(basis, L2_FLOAT)
    diagonal_product = math.prod(row[i] for i, row in enumerate(data.matrix))
    assert diagonal_product == math.inf and 1.02e305 < data.det < 1.03e305
    assert not data.is_degenerate and certifies_independence(data)
    coefficients = project(sv([1.0, 1.0]), Subspace(basis, L2_FLOAT)).coefficients
    assert coefficients == pytest.approx((1e-78 - 1 / 3.2e74, 1 / 3.2e74), rel=1e-6)
    # det / prod(diag) = 1e-14 at the same scale is below REL_SINGULAR
    near = gram([sv([1e78]), sv([1e78, 1e71])], L2_FLOAT)
    assert near.det > 0 and near.is_degenerate


def test_gram_all_nines_zero_det():
    data = gram([sv([1, 2]), sv([2, 1])], L1)
    assert data.matrix == ((Fraction(9), Fraction(9)), (Fraction(9), Fraction(9)))
    assert data.det == 0
    assert not certifies_independence(data)


def test_gram_single_unit_vector():
    data = gram([sv([1])], L1)
    assert data.matrix == ((Fraction(1),),)
    assert data.det == 1


def test_gram_orthonormal_pair_l2():
    data = gram([sv([1]), sv([0, 1])], LpSpace(2))
    assert data.matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert data.det == 1
    assert certifies_independence(data)


def test_gram_diagonal_is_squared_norm():
    rng = random.Random(33)
    for p in (1, 2):
        space = LpSpace(p)
        basis = [rand_vector(rng, "exact") for _ in range(3)]
        data = gram(basis, space)
        for i, v in enumerate(basis):
            assert data.matrix[i][i] == norm_sq(v, space)


def test_gram_repeated_vector_never_certifies():
    x = sv([1, 3])
    assert not certifies_independence(gram([x, x], L1))


def test_gram_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        gram([SparseVector()], L1)


# -- projection -------------------------------------------------------------


def test_project_onto_coordinate_plane():
    V = Subspace([sv([1]), sv([0, 1])], L1)
    pr = project(sv([1, 2, 1]), V)
    assert pr.projected == sv([1, 2])
    assert pr.residual == sv([0, 0, 1])


def test_project_four_coordinate_examples():
    V = Subspace([sv([1]), sv([0, 1]), sv([0, 0, 1])], L1)
    assert project(sv([1, 1, 2, 3]), V).projected == sv([1, 1, 2])
    assert project(sv([2, 1, -3, 2]), V).projected == sv([2, 1, -3])


def test_project_fixes_members_of_the_subspace():
    x1 = sv([1, 1, 1])
    V = Subspace([x1, sv([0, 1])], L1)
    pr = project(x1, V)
    assert pr.projected == x1
    assert pr.residual.is_zero


def test_project_degenerate_gram_raises():
    V = Subspace([sv([1, 2]), sv([2, 1])], L1)
    with pytest.raises(DegenerateSubspaceError):
        project(sv([1, 1]), V)


def test_single_vector_projection_formula():
    rng = random.Random(4)
    for _ in range(50):
        x = rand_vector(rng, "exact")
        y = rand_vector(rng, "exact", nonzero=False)
        pr = project(y, Subspace([x], L1))
        expected = x.scale(g(x, y, L1) / norm_sq(x, L1))
        assert pr.projected == expected


@pytest.mark.parametrize("backend,p", [("exact", 1), ("exact", 2), ("float", 1.5), ("float", 3.0)])
def test_projection_residual_orthogonality_and_decomposition(backend, p):
    rng = random.Random(f"residual-{backend}-{p}")
    space = LpSpace(p)
    for _ in range(40):
        dim = rng.randint(1, 3)
        V = rand_subspace(rng, backend, dim, space)
        y = rand_vector(rng, backend, nonzero=False)
        pr = project(y, V)
        if backend == "exact":
            assert pr.projected.add(pr.residual) == y
        else:
            assert np.allclose(
                to_array(pr.projected.add(pr.residual)), to_array(y), atol=1e-10
            )
        for xi in V.basis:
            val = g(xi, pr.residual, space)
            if backend == "exact":
                assert val == 0
            else:
                scale_ref = float(norm(xi, space)) * max(float(norm(y, space)), 1.0)
                assert abs(val) <= 1e-10 * max(scale_ref, 1.0)


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 2.0), ("float", 3.0)])
def test_projection_idempotence(backend, p):
    rng = random.Random(77)
    space = LpSpace(p)
    for _ in range(30):
        V = rand_subspace(rng, backend, rng.randint(1, 3), space)
        y = rand_vector(rng, backend, nonzero=False)
        once = project(y, V).projected
        twice = project(once, V).projected
        if backend == "exact":
            assert twice == once
        else:
            assert np.allclose(to_array(twice), to_array(once), atol=1e-9)


def test_bordered_determinant_cross_check():
    rng = random.Random(55)
    for p in (1, 2):
        space = LpSpace(p)
        for _ in range(30):
            V = rand_subspace(rng, "exact", rng.randint(1, 3), space)
            y = rand_vector(rng, "exact", nonzero=False)
            assert project_bordered(y, V) == project(y, V).projected


@st.composite
def exact_projections(draw):
    """An exact basis of 1 to 5 vectors of mixed denominators in 6
    coordinates, sometimes with one vector a rational combination of the
    others, and a vector y."""
    entries = st.fractions(-4, 4, max_denominator=12)
    n = draw(st.integers(1, 5))
    dense = st.lists(entries, min_size=6, max_size=6)
    rows = draw(st.lists(dense, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows = _combined(draw, rows, st.fractions(-3, 3, max_denominator=5))
    basis = [sv(r) for r in rows]
    assume(not any(v.is_zero for v in basis))
    return Subspace(basis, LpSpace(draw(st.sampled_from([1, 2])))), sv(draw(dense))


@settings(max_examples=100, deadline=None)
@given(exact_projections())
def test_exact_project_matches_the_bordered_determinant(case):
    V, y = case

    def projected(solver):
        try:
            return solver(y, V)
        except DegenerateSubspaceError:
            return "degenerate"

    assert projected(lambda y, V: project(y, V).projected) == projected(project_bordered)


@settings(max_examples=150, deadline=None)
@given(exact_projections())
@example((Subspace([sv([1, 2]), sv([2, 1])], L1), sv([1, 1])))  # all nines, det 0
@example((Subspace([sv([Fraction(1, 2), 1]), sv([1, Fraction(1, 3)])], L1), sv([1, 1])))
@example((  # pairwise coprime denominators: the column scales D_k all differ
    Subspace([sv([Fraction(1, 2), 1]), sv([1, Fraction(-1, 3)]), sv([0, 1, Fraction(1, 5)]),
              sv([1, 0, 0, Fraction(-1, 7)]), sv([Fraction(1, 11), 0, 1, 1, 1])], L1),
    sv([1, 2, 3, 4, 5, 6]),
))
def test_exact_gram_data_over_denominators_matches_the_reference_paths(case):
    """The exact Gram rows are ints over (row, column) scales, and every
    benchmark basis has denominators 1.  Over mixed denominators the matrix
    holds the single g-values as Fractions, the determinant and its degeneracy are
    those of the cofactor expansion, and a projection onto a fresh
    subspace, which builds no Gram data, is the bordered determinant's."""
    V, y = case
    data = Subspace(V.basis, V.space).gram()
    singles = [[g(xi, xk, V.space) for xk in V.basis] for xi in V.basis]
    assert data.matrix == tuple(map(tuple, singles))
    assert all(type(v) is Fraction for row in data.matrix for v in row)
    assert data.det == det_cofactor(singles)
    assert data.is_degenerate == (det_cofactor(singles) == 0)

    def projected(solver):
        try:
            return solver(y, Subspace(V.basis, V.space))
        except DegenerateSubspaceError:
            return "degenerate"

    assert projected(lambda y, V: project(y, V).projected) == projected(project_bordered)


GRAM_VALUES = {
    "float": st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30),
    "exact": st.fractions(-9, 9, max_denominator=9).filter(bool),
    "small": st.integers(-9, 9).filter(bool).map(float),
}


@pytest.mark.parametrize(
    "values,space",
    [
        ("float", LpSpace(1.0)),
        ("float", LpSpace(1.5)),
        ("float", L2_FLOAT),
        ("float", LpSpace(3.0)),
        ("exact", L1),
        ("exact", LpSpace(2)),
        ("small", MAX_NORM),
    ],
    ids=["float-p1", "float-p1.5", "float-p2", "float-p3", "exact-p1", "exact-p2", "max-norm"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gram_entries_are_the_map_and_single_g_values(values, space, data):
    """One routine prepares every first argument: each Gram entry has the
    bits of the map g(x_i, .) applied to x_k and of the single g(x_i, x_k),
    at every p, exact or float, and under a norm oracle.  At p = 2 the
    entries below the diagonal are mirrored, with the same bits."""
    vectors = st.dictionaries(st.integers(1, 6), GRAM_VALUES[values], min_size=1, max_size=6).map(SparseVector)
    basis = data.draw(st.lists(vectors, min_size=1, max_size=5), "basis")
    try:
        matrix = gram(basis, space).matrix
    except NumericalRangeError:  # the determinant left the float range
        assume(False)
    for xi, row in zip(basis, matrix):
        g_x = g_functional(xi, space)
        assert [repr(v) for v in row] == [repr(g_x(xk)) for xk in basis] == [repr(g(xi, xk, space)) for xk in basis]


def test_projection_basis_invariance_holds_for_p2():
    rng = random.Random(66)
    space = LpSpace(2.0)
    for _ in range(30):
        V = rand_subspace(rng, "float", 2, space)
        y = rand_float_vector(rng)
        M = [[1.0, float(rng.randint(1, 3))], [float(rng.randint(-2, 2)), 1.0]]
        if abs(M[0][0] * M[1][1] - M[0][1] * M[1][0]) < 0.5:
            continue
        recombined = Subspace(
            [
                V.basis[0].scale(M[0][0]).add(V.basis[1].scale(M[0][1])),
                V.basis[0].scale(M[1][0]).add(V.basis[1].scale(M[1][1])),
            ],
            space,
        )
        a = project(y, V).projected
        b = project(y, recombined).projected
        assert np.allclose(to_array(a), to_array(b), atol=1e-8)


def test_projection_depends_on_basis_choice_in_l1():
    # g is not linear in its first argument, so the orthogonality conditions
    # are attached to the basis vectors: two bases of the same span can give
    # different projections.  Exact witness, kept as a regression anchor.
    x1 = sv([1, 1, 1])
    x2 = sv([1, -1, 0])
    y = sv([0, 0, 1])
    a = project(y, Subspace([x1, x2], L1)).projected
    b = project(y, Subspace([x1, x1.add(x2)], L1)).projected
    assert a == sv([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
    assert b == sv([Fraction(2, 3), 0, Fraction(1, 3)])
    assert a != b


def test_p2_projection_matches_normal_equations():
    rng = random.Random(88)
    for _ in range(50):
        V = rand_subspace(rng, "float", rng.randint(1, 3), L2_FLOAT)
        y = rand_float_vector(rng, nonzero=False)
        ours = to_array(project(y, V).projected)
        ref = classical_projection(y, V.basis)
        assert np.allclose(ours, ref, atol=1e-9)


def assert_assembled_by_successive_adds(y, sub):
    """y_S and the residual of ``project`` are, bit for bit, what adding the
    scaled basis vectors one at a time gives with the same coefficients."""
    proj = project(y, sub)
    ref = project_by_successive_adds(proj.coefficients, sub.basis)
    assert proj.projected == ref
    assert [type(v) for _, v in proj.projected] == [type(v) for _, v in ref]
    assert repr(proj.projected.items()) == repr(ref.items())
    assert repr(proj.residual.items()) == repr(y.sub(ref).items())
    assert proj.projected.backend == ref.backend
    return proj


# coefficients m * 10^e down to 1e-200, so that products c_k * x_k(i) underflow
WIDE_FLOATS = st.builds(
    lambda m, e: m * 10.0 ** e,
    st.integers(-9, 9).filter(bool).map(float),
    st.sampled_from([-200, -160, -20, 0, 0, 0, 20]),
)
FLOAT_VECTORS = st.dictionaries(st.integers(1, 6), WIDE_FLOATS, min_size=1, max_size=4).map(
    SparseVector
)


# exact entries n/d with denominators d up to 12, so that coefficients and
# basis entries have mixed denominators
EXACT_VECTORS = st.dictionaries(
    st.integers(1, 6),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)),
    min_size=1,
    max_size=4,
).map(SparseVector)


@pytest.mark.parametrize(
    "p, gram_data",
    [
        *(pytest.param(p, "float", id=str(p)) for p in (1.0, 1.5, 2.0)),
        pytest.param(1, "eliminated", id="exact-1"),
        pytest.param(2, "eliminated", id="exact-2"),
        pytest.param(1, "unit-lower", id="exact-1-unit-lower"),
    ],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_pass_assembly_equals_successive_adds(p, gram_data, data):
    vectors = FLOAT_VECTORS if gram_data == "float" else EXACT_VECTORS
    basis = data.draw(st.lists(vectors, min_size=1, max_size=4), label="basis")
    y = data.draw(vectors, label="y")
    space = LpSpace(p)
    try:
        sub = starred_subspace(basis, space) if gram_data == "unit-lower" else Subspace(basis, space)
        assert_assembled_by_successive_adds(y, sub)
    except (DegenerateSubspaceError, DependenceError, NumericalRangeError):
        pass  # no coefficients to assemble with


def test_one_pass_assembly_where_a_coordinate_cancels_or_a_product_underflows():
    # y = x_1 - x_2: coordinate 1 of y_S is 1.0 * 1.0 + (-1.0) * 1.0 = 0.0
    basis = [sv([1.0, 1.0]), sv([1.0])]
    proj = assert_assembled_by_successive_adds(sv([0.0, 1.0]), Subspace(basis, L2_FLOAT))
    assert proj.coefficients == (1.0, -1.0) and proj.projected.items() == ((2, 1.0),)
    # c_1 = 1e-30, so c_1 * 1e-300 underflows to 0.0 at coordinate 2, next to c_2 * 1.0
    basis = [sv([1.0, 1e-300]), sv([0.0, 1.0, 1.0])]
    proj = assert_assembled_by_successive_adds(sv([1e-30, 0.0, 1.0]), Subspace(basis, L2_FLOAT))
    assert proj.coefficients[0] * 1e-300 == 0.0


# -- left g-orthonormalization ---------------------------------------------


def test_orthonormalize_fixed_points_and_single():
    e1, e2 = sv([1]), sv([0, 1])
    assert left_orthonormalize([e1, e2], L1) == [e1, e2]
    x = sv([2, 2])
    assert left_orthonormalize([x], L1) == [sv([Fraction(1, 2), Fraction(1, 2)])]


def test_orthonormalize_dependent_input_raises():
    with pytest.raises(DependenceError):
        left_orthonormalize([sv([1, 1]), sv([2, 2])], L1)


def test_orthonormalize_matches_classical_gram_schmidt_p2():
    rng = random.Random(14)
    for _ in range(30):
        V = rand_subspace(rng, "float", 3, L2_FLOAT)
        ours = left_orthonormalize(V.basis, L2_FLOAT)
        A = np.stack([to_array(v) for v in V.basis], axis=1)
        Q, R = np.linalg.qr(A)
        signs = np.sign(np.diag(R))
        ref = Q * signs  # classical Gram-Schmidt fixes positive diagonal
        got = np.stack([to_array(v) for v in ours], axis=1)
        assert np.allclose(got, ref, atol=1e-8)


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5), ("float", 2.0), ("float", 3.0)])
def test_orthonormalize_contract(backend, p):
    rng = random.Random(f"orthonormalize-{backend}-{p}")
    space = LpSpace(p)
    for _ in range(25):
        V = rand_subspace(rng, backend, rng.randint(1, 3), space)
        out = left_orthonormalize(V.basis, space)
        data = gram(out, space)
        n = len(out)
        for k in range(n):
            if backend == "exact":
                assert data.matrix[k][k] == 1
            else:
                assert data.matrix[k][k] == pytest.approx(1.0, abs=1e-10)
            for l in range(k + 1, n):
                if backend == "exact":
                    assert data.matrix[k][l] == 0
                else:
                    assert abs(data.matrix[k][l]) <= 1e-10
        if backend == "exact":
            assert data.det == 1
        else:
            assert data.det == pytest.approx(1.0, abs=1e-8)
        # span preservation: each original vector solves exactly in the output
        A = np.stack([to_array(v) for v in out], axis=1)
        for orig in V.basis:
            coef, res, *_ = np.linalg.lstsq(A, to_array(orig), rcond=None)
            assert np.allclose(A @ coef, to_array(orig), atol=1e-8)


def _bases(rng, backend, p):
    """Independent bases of dimension 1 to 5 in 8 coordinates, or in 4 for
    exact l2, where only the Cayley construction orthonormalizes rationally."""
    for _ in range(20):
        dim = rng.randint(1, 4 if (backend, p) == ("exact", 2) else 5)
        if (backend, p) == ("exact", 2):
            yield rand_rational_l2_basis(rng, dim)
        else:
            yield rand_subspace(rng, backend, dim, LpSpace(p), max_index=8).basis


@pytest.mark.parametrize("backend,p", [("exact", 1), ("exact", 2)])
def test_orthonormalize_equals_projection_per_step_exactly(backend, p):
    rng = random.Random(f"incremental-{backend}-{p}")
    space = LpSpace(p)
    for basis in _bases(rng, backend, p):
        assert left_orthonormalize(basis, space) == left_orthonormalize_by_projection(
            basis, space
        )


def _deep_l1_bases(rng):
    """Exact bases of d = 8, 12 and 16 vectors of 8 to 32 entries in 4d
    coordinates, up to 64, with denominators 1 to 4, so that the int-pair
    assembly of y_S adds terms over different denominators; and a basis of
    16 whose last vector is a combination of two before it."""

    def vec(width):
        return SparseVector(
            (i, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
            for i in rng.sample(range(1, width + 1), rng.randint(8, min(32, width)))
        )

    for d in (8, 12, 16):
        yield [vec(4 * d) for _ in range(d)]
    basis = [vec(64) for _ in range(15)]
    yield basis + [basis[3].add(basis[9].scale(Fraction(-2, 3)))]


def test_orthonormalize_equals_projection_per_step_exactly_at_deep_basis_sizes():
    outcomes = [
        (_outcome(left_orthonormalize, basis, L1), _outcome(left_orthonormalize_by_projection, basis, L1))
        for basis in _deep_l1_bases(random.Random("incremental-deep-l1"))
    ]
    assert [len(ours) for ours, _ in outcomes[:3]] == [8, 12, 16]
    assert outcomes[3][0] == (DependenceError, "vector 16 lies in the span of its predecessors")
    for ours, ref in outcomes:
        assert ours == ref


@st.composite
def exact_bases(draw):
    """Exact bases of up to 16 vectors: l1 ones of entries with denominators
    up to 9 in 2d + 4 coordinates, or l2 ones from the Cayley construction
    (in up to 16 coordinates), whose left orthonormalization is rational;
    about half of them with one vector replaced by a combination of those
    before it."""
    if draw(st.booleans()):
        space, d = LpSpace(2), draw(st.integers(1, 16))
        rng = draw(st.randoms(use_true_random=False))
        basis = rand_rational_l2_basis(rng, d, draw(st.integers(d, 16)))
    else:
        space, d = L1, draw(st.integers(1, 16))
        entries = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
        vectors = st.dictionaries(st.integers(1, 2 * d + 4), entries, min_size=1, max_size=6)
        basis = [SparseVector(draw(vectors)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        r = draw(st.integers(1, d - 1))
        weights = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        combination = SparseVector._combination([(w, v) for w, v in zip(weights, basis) if w])
        if not combination.is_zero:
            basis[r] = combination
    return basis, space


@settings(max_examples=60, deadline=None)
@given(exact_bases())
def test_exact_orthonormalize_on_int_rows_equals_projection_per_step(case):
    """Steps solved on int rows give the starred vectors of a fresh
    projection per step, or the same DependenceError at the same vector."""
    basis, space = case
    assert _outcome(left_orthonormalize, basis, space) == _outcome(
        left_orthonormalize_by_projection, basis, space
    )


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_orthonormalize_agrees_with_projection_per_step_in_float(p):
    rng = random.Random(f"incremental-float-{p}")
    space = LpSpace(p)
    for basis in _bases(rng, "float", p):
        ours = left_orthonormalize(basis, space)
        ref = left_orthonormalize_by_projection(basis, space)
        assert [v.support for v in ours] == [v.support for v in ref]
        for a, b in zip(ours, ref):
            for (_, x), (_, y) in zip(a, b):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "basis,space",
    [
        ([sv([1, 1]), sv([2, 2])], L1),
        ([sv([1, 0, 2]), sv([0, 1, 1]), sv([1, 1, 3])], L1),
        ([sv([3, 4]), sv([0, 0, 1]), sv([6, 8, 5])], LpSpace(2)),
        ([sv([1.0, 2.0]), sv([0.5, -1.0, 2.0]), sv([2.0, 0.0, 4.0])], LpSpace(1.5)),
    ],
)
def test_orthonormalize_dependent_input_raises_as_projection_per_step(basis, space):
    with pytest.raises(DependenceError) as ours:
        left_orthonormalize(basis, space)
    with pytest.raises(DependenceError) as ref:
        left_orthonormalize_by_projection(basis, space)
    assert str(ours.value) == str(ref.value)


@pytest.mark.parametrize(
    "unit, p, e",
    [
        ([[1.0]], 2, 1030),
        ([[0.5, 0.5]], 2, 1073),  # 5e-324 * (1, 1), whose norm rounds to 5e-324
        ([[0.5], [0.625, 0.375, 0.5]], 2, 1030),  # x_2's residual 0.625 * 2^-1030
        ([[0.75, 0.25]], 1.5, 1058),
        ([[0.75, 0.25]], 1.5, 1057),
    ],
)
def test_orthonormalize_scales_a_subnormal_residual_by_a_power_of_two(unit, p, e):
    """Below the least normal float, 1 / |y_k| overflows: x_k is scaled by a
    power of two first, exactly, into the norms [1/2, 1) of ``unit``, so the
    starred vectors of ``unit`` times 2^-e are those of ``unit``."""
    space = LpSpace(p)
    basis = [sv(v) for v in unit]
    tiny = [v.scale(2.0**-e) for v in basis]
    assert all(0 < norm(v, space) < sys.float_info.min for v in tiny)
    assert left_orthonormalize(tiny, space) == left_orthonormalize(basis, space)
    assert left_orthonormalize([SparseVector({1: 1e-310})], LpSpace(2)) == [sv([1.0])]


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_orthonormalize_decides_dependence_at_the_scale_of_the_vector(p):
    """A float residual counts as dependent against 1e-12 |x_k|, and an x_k
    so small that such a residual would be subnormal is first scaled by
    2^-e, e the exponent of |x_k|: the step then runs on normal floats.  So
    no magnitude floor rejects an independent basis of norms below 1e-300,
    whose unit vectors are those of the unscaled basis to 1e-4, and the
    subnormal grid's round-off does not pass a dependent one."""
    space = LpSpace(p)
    basis = [sv([3.0, 4.0]), sv([1.0, 7.0, 0.5])]
    tiny = [v.scale(2.0**-1060) for v in basis]
    assert all(0 < norm(v, space) < 1e-300 for v in tiny)
    for ours, unit in zip(left_orthonormalize(tiny, space), left_orthonormalize(basis, space)):
        assert float(norm(ours.sub(unit), space)) <= 1e-4
    dependent = [sv([2.0**-1060] * 2), sv([2.0**-1059] * 2)]
    for route in (left_orthonormalize, left_orthonormalize_by_projection, left_orthonormalize_by_single_g):
        with pytest.raises(DependenceError):
            route(dependent, space)


def test_orthonormalize_under_max_norm_raises_as_projection_per_step():
    # g of the max norm is not additive in its second argument when
    # coordinates tie, so the starred Gram matrix is not unit lower-triangular:
    # here it is [[1, 0, -1/2], [0, 1, 1/2], [-1, 1, 1]], which is singular.
    basis = [sv([1.0, 1, 1, 0]), sv([1.0, 0, 0, 0]), sv([0.0, 1, 0, 0]), sv([1.0, 1, 0, 1])]
    with pytest.raises(DegenerateSubspaceError) as ours:
        left_orthonormalize(basis, MAX_NORM)
    with pytest.raises(DegenerateSubspaceError) as ref:
        left_orthonormalize_by_projection(basis, MAX_NORM)
    assert str(ours.value) == str(ref.value)


def _outcome(f, basis, space):
    try:
        return f(basis, space)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "space",
    [MAX_NORM, OracleSpace(lambda x: sum(abs(v) for _, v in x), "taxicab")],
    ids=["max", "taxicab"],
)
def test_orthonormalize_under_oracle_norms_equals_projection_per_step(space):
    # small integer coordinates make ties, where a black-box g is not additive
    rng = random.Random(f"incremental-oracle-{space.name}")
    for _ in range(40):
        basis = [
            sv([float(rng.randint(-2, 2)) for _ in range(4)]) for _ in range(rng.randint(1, 4))
        ]
        basis = [v for v in basis if not v.is_zero] or [sv([1.0])]
        assert _outcome(left_orthonormalize, basis, space) == _outcome(
            left_orthonormalize_by_projection, basis, space
        )


def _scaled_bases(backend, p):
    """Bases of 1 to 8 vectors, each vector of magnitude 10^e, e from -150
    to 150, and half of them dependent: one vector a combination of those
    before it.  The others are independent: vector k of a drawn order has
    its first nonzero at coordinate k and up to four more after it.  Exact
    l2 bases come from the Cayley construction, whose left
    orthonormalization is rational."""
    ten = Fraction(10) if backend == "exact" else 10.0
    mantissas = st.integers(-99, 99).filter(bool)
    entries = st.builds(lambda m, e: m * ten ** e, mantissas, st.integers(-2, 2))

    @st.composite
    def triangular(draw):
        d = draw(st.integers(1, 8))
        basis = []
        for k in range(1, d + 1):
            tail = draw(st.dictionaries(st.integers(k + 1, d + 4), entries, max_size=4))
            basis.append(SparseVector({k: draw(entries), **tail}))
        return draw(st.permutations(basis))

    if (backend, p) == ("exact", 2):
        vectors = st.randoms(use_true_random=False).map(
            lambda rng: rand_rational_l2_basis(rng, rng.randint(1, 4))
        )
    else:
        vectors = triangular()

    @st.composite
    def bases(draw):
        basis = draw(vectors)
        scales = draw(st.lists(st.integers(-150, 150), min_size=len(basis), max_size=len(basis)))
        basis = [v.scale(ten ** e) for v, e in zip(basis, scales)]
        if len(basis) > 1 and draw(st.booleans()):
            r = draw(st.integers(1, len(basis) - 1))
            ws = draw(st.lists(mantissas, min_size=r, max_size=r))
            combination = SparseVector()
            for w, v in zip(ws, basis):
                combination = combination.add(v.scale(w))
            if not combination.is_zero:
                basis[r] = combination
        return basis

    return bases()


def _repr_outcome(f, basis, space):
    """repr of the starred vectors, or the type and message of the typed
    error raised."""
    try:
        return repr(f(basis, space))
    except GAngleError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "backend,p", [("float", 1.0), ("float", 1.5), ("float", 3.0), ("exact", 1), ("exact", 2)]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orthonormalize_with_kept_maps_equals_single_g_right_hand_sides(backend, p, data):
    """The right-hand sides from the kept starred maps are bit for bit those
    of a single g call per entry, onto Gram data that keeps no maps."""
    basis = data.draw(_scaled_bases(backend, p), "basis")
    space = LpSpace(p)
    assert _repr_outcome(left_orthonormalize, basis, space) == _repr_outcome(
        left_orthonormalize_by_single_g, basis, space
    )
