import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gangle import (
    DegenerateSubspaceError,
    DependenceError,
    LpSpace,
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
from gangle.gram import det, solve

from support import (
    classical_projection,
    det_cofactor,
    left_orthonormalize_by_projection,
    project_bordered,
    rand_float_vector,
    rand_rational_l2_basis,
    rand_subspace,
    rand_vector,
    to_array,
)

sv = SparseVector.from_dense
L1 = LpSpace(1)
L2_FLOAT = LpSpace(2.0)


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
    x = solve([[1, 2], [3, 4]], [1, 1])
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
        solve([[one, 2 * one], [2 * one, 4 * one]], [one, one])


# -- gram -------------------------------------------------------------------


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


MAX_NORM = OracleSpace(lambda x: max((abs(v) for _, v in x), default=0.0), "max")


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
