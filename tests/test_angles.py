import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gangle import (
    BackendError,
    ConsistencyError,
    DegenerateSubspaceError,
    GAngleError,
    LpSpace,
    OracleSpace,
    SparseVector,
    Subspace,
    ZeroVectorError,
    angle_line_subspace,
    angle_plane_subspace,
    cos_sq_explicit_sum,
    g_explicit,
    lambda_functional,
    left_orthonormalize,
    norm_sq,
    project,
    vector_angle,
)
from gangle.angles import _clamp_unit

from support import (
    cos_sq_explicit_sum_by_multi_index,
    principal_angle_cosines,
    rand_exact_vector,
    rand_float_vector,
    rand_rational_l2_basis,
    rand_subspace,
    rand_vector,
    rational_orthogonal,
)

sv = SparseVector.from_dense
L1 = LpSpace(1)
L2_FLOAT = LpSpace(2.0)


# -- vector angles ----------------------------------------------------------


def test_parallel_and_antiparallel():
    x = sv([2, -1])
    assert vector_angle(x, x.scale(3), L1).angle_rad == 0.0
    assert vector_angle(x, x.scale(-1), L1).angle_rad == pytest.approx(math.pi)


def test_vector_angle_nonsymmetry_witness():
    x = sv([1, 1])
    y = sv([-1, 2])
    assert vector_angle(x, y, L1).angle_rad == pytest.approx(math.pi / 2)
    other = vector_angle(y, x, L1)
    assert other.cos_sq == Fraction(1, 9)
    assert other.angle_rad == pytest.approx(math.acos(1 / 3))


def test_vector_angle_rejects_zero():
    with pytest.raises(ZeroVectorError):
        vector_angle(SparseVector(), sv([1]), L1)


def test_homogeneity_of_vector_angle():
    rng = random.Random(31)
    for _ in range(100):
        x = rand_vector(rng, "exact")
        y = rand_vector(rng, "exact")
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        base = vector_angle(x, y, L1)
        same = vector_angle(x.scale(a), y.scale(b), L1)
        flipped = vector_angle(x.scale(-a), y.scale(b), L1)
        assert same.cos_sq == base.cos_sq and same.cos == pytest.approx(base.cos)
        assert flipped.cos_sq == base.cos_sq
        assert flipped.angle_rad == pytest.approx(math.pi - base.angle_rad)


def test_first_argument_continuity():
    x = sv([2.0, 1.0])
    y = sv([1.0, -3.0])
    d = sv([1.0, 1.0])
    base = vector_angle(x, y, LpSpace(1.0)).angle_rad
    deltas = []
    for n in (10, 100, 1000, 10000):
        xn = x.add(d.scale(1.0 / n))
        deltas.append(abs(vector_angle(xn, y, LpSpace(1.0)).angle_rad - base))
    assert deltas[-1] < 1e-3
    assert deltas[-1] <= deltas[0]


def test_second_argument_discontinuity_sequence():
    # g(y_n, x_n) = (1 + 1/n)(2 + 1/n) tends to 2, but g(y, x) = 1
    x = sv([1, 1])
    y = sv([0, 1])
    assert g_explicit(y, x, 1) == 1
    for n in (10, 1000, 100000):
        yn = sv([Fraction(1, n), 1])
        xn = sv([1 + Fraction(1, n), 1])
        assert g_explicit(yn, xn, 1) == (1 + Fraction(1, n)) * (2 + Fraction(1, n))
    assert abs(float(g_explicit(yn, xn, 1)) - 2) < 1e-4  # limit 2, not g(y, x) = 1


# -- line vs subspace -------------------------------------------------------


def test_clamp_unit_forgives_only_round_off():
    assert _clamp_unit(-1e-13) == 0.0
    assert _clamp_unit(1.0 + 1e-13) == 1.0
    for beyond in (-1e-9, 1.0 + 1e-9, Fraction(-1, 10 ** 20)):
        with pytest.raises(ConsistencyError):
            _clamp_unit(beyond)


def test_line_vs_plane_worked_example():
    V = Subspace([sv([1]), sv([0, 1])], L1)
    u = sv([1, 2, 1])
    res = angle_line_subspace(u, V)
    assert res.cos_sq == Fraction(9, 16)
    assert res.cos_sq_ratio == Fraction(9, 16)
    assert res.angle_rad == pytest.approx(math.acos(0.75))
    assert cos_sq_explicit_sum(u, V) == Fraction(9, 16)


def test_line_inside_subspace():
    V = Subspace([sv([1]), sv([0, 1])], L1)
    u = sv([3, -2])
    res = angle_line_subspace(u, V)
    assert res.cos_sq == 1
    assert res.angle_rad == 0.0
    assert cos_sq_explicit_sum(u, V) == 1


def test_line_vs_axis_euclidean():
    res = angle_line_subspace(sv([1.0, 1.0]), Subspace([sv([1.0])], L2_FLOAT))
    assert res.cos_sq == pytest.approx(0.5)
    assert res.angle_rad == pytest.approx(math.pi / 4)


def test_projection_zero_gives_right_angle():
    # in l1 the projection of (0, 1) onto span{(1, 0)} is zero
    res = angle_line_subspace(sv([0, 1]), Subspace([sv([1])], L1))
    assert res.cos_sq == 0
    assert res.angle_rad == pytest.approx(math.pi / 2)


def test_explicit_sum_guards():
    with pytest.raises(ZeroVectorError):
        cos_sq_explicit_sum(SparseVector(), Subspace([sv([1]), sv([0, 1])], L1))
    taxicab = OracleSpace(lambda x: sum(abs(v) for _, v in x), "taxicab")
    with pytest.raises(ValueError, match="lp spaces only"):
        cos_sq_explicit_sum(sv([1.0, 1.0]), Subspace([sv([1.0]), sv([0.0, 1.0])], taxicab))


def test_explicit_sum_beyond_three_dimensions():
    V4 = Subspace([sv([1]), sv([0, 1]), sv([0, 0, 1]), sv([0, 0, 0, 1])], L1)
    assert cos_sq_explicit_sum(sv([1, 1, 1, 1, 1]), V4) == Fraction(16, 25)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_explicit_sum_matches_projection_onto_orthonormalized_basis(p, t):
    rng = random.Random(f"explicit-{p}-{t}")
    space = LpSpace(p)
    for _ in range(15):
        V = rand_subspace(rng, "float", t, space)
        u = rand_float_vector(rng)
        starred = Subspace(left_orthonormalize(V.basis, space), space)
        ratio = angle_line_subspace(u, starred).cos_sq_ratio
        assert cos_sq_explicit_sum(u, V) == pytest.approx(float(ratio), abs=1e-8, rel=1e-8)


def test_explicit_sum_matches_projection_exactly_p1():
    rng = random.Random("explicit-exact")
    for _ in range(25):
        t = rng.randint(1, 3)
        V = rand_subspace(rng, "exact", t, L1)
        u = rand_vector(rng, "exact")
        starred = Subspace(left_orthonormalize(V.basis, L1), L1)
        ratio = angle_line_subspace(u, starred).cos_sq_ratio
        assert cos_sq_explicit_sum(u, V) == ratio


def _explicit_sum_case(rng, p, t):
    """(u, V) in exact lp; at p = 2 with a rational orthonormalization and a
    rational |u|, so that the multi-index sum returns a value."""
    if p == 1:
        return rand_vector(rng, "exact"), rand_subspace(rng, "exact", t, L1)
    u = SparseVector.from_dense(rng.choice(rational_orthogonal(rng, 4))).scale(rng.randint(1, 3))
    return u, Subspace(rand_rational_l2_basis(rng, t), LpSpace(2))


@pytest.mark.parametrize("p", (1, 2))
def test_explicit_sum_equals_the_multi_index_sum_exactly(p):
    rng = random.Random(f"multi-index-{p}")
    compared = 0
    for k in range(45):
        u, V = _explicit_sum_case(rng, p, k % 3 + 1)
        try:
            expected = cos_sq_explicit_sum_by_multi_index(u, V)
        except GAngleError:
            continue
        assert cos_sq_explicit_sum(u, V) == expected
        compared += 1
    assert compared >= 40


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
def test_explicit_sum_matches_the_multi_index_sum_in_float(p):
    rng = random.Random(f"multi-index-float-{p}")
    space = LpSpace(p)
    for k in range(30):
        V = rand_subspace(rng, "float", k % 3 + 1, space)
        u = rand_float_vector(rng)
        expected = cos_sq_explicit_sum_by_multi_index(u, V)
        assert abs(cos_sq_explicit_sum(u, V) - expected) <= 1e-12 * abs(expected)


def test_exact_l2_explicit_sum_with_an_irrational_norm():
    # |u| = sqrt(2); the sum divides by the rational |u|^2
    u = sv([1, 1, 0])
    V = Subspace([sv([1])], LpSpace(2))
    assert cos_sq_explicit_sum(u, V) == Fraction(1, 2) == angle_line_subspace(u, V).cos_sq
    rng = random.Random("explicit-l2-irrational")
    for k in range(30):
        V = Subspace(rand_rational_l2_basis(rng, k % 3 + 1), LpSpace(2))
        u = rand_exact_vector(rng, max_index=4)
        starred = Subspace(left_orthonormalize(V.basis, V.space), V.space)
        assert cos_sq_explicit_sum(u, V) == angle_line_subspace(u, starred).cos_sq_ratio


def test_explicit_sum_rejects_mixed_backends():
    with pytest.raises(BackendError):
        cos_sq_explicit_sum(sv([1.0, 2.0]), Subspace([sv([1])], L1))


def test_p2_line_angle_matches_principal_angles():
    rng = random.Random("principal-1")
    for _ in range(40):
        t = rng.randint(1, 3)
        V = rand_subspace(rng, "float", t, L2_FLOAT)
        u = rand_float_vector(rng)
        res = angle_line_subspace(u, V)
        ref = principal_angle_cosines([u], V.basis)
        assert math.sqrt(float(res.cos_sq)) == pytest.approx(float(np.prod(ref)), abs=1e-10)


# -- the area functional ----------------------------------------------------


def test_area_counterexample_values():
    x = sv([3, 1])
    y = sv([-2, 0])
    z = sv([0, 2])
    assert lambda_functional(x, y, L1).value == 4
    assert lambda_functional(x, z, L1).value_sq == 48
    assert lambda_functional(x, z, L1).value == pytest.approx(4 * math.sqrt(3), abs=1e-12)
    assert lambda_functional(x, y.add(z), L1).value == 16
    assert 16 > 4 + 4 * math.sqrt(3)


def test_area_of_dependent_pair_is_zero():
    x = sv([2, -5])
    assert lambda_functional(x, x.scale(7), L1).value_sq == 0
    assert lambda_functional(x, SparseVector(), L1).value_sq == 0


def test_area_euclidean_parallelogram():
    rng = random.Random("area-euclid")
    for _ in range(50):
        x = rand_float_vector(rng)
        y = rand_float_vector(rng)
        got = lambda_functional(x, y, L2_FLOAT).value_sq
        ax, ay = np.array(x.to_dense(8)), np.array(y.to_dense(8))
        ref = np.dot(ax, ax) * np.dot(ay, ay) - np.dot(ax, ay) ** 2
        assert got == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("backend,p", [("exact", 1), ("exact", 2), ("float", 1.5), ("float", 3.0)])
def test_area_properties(backend, p):
    rng = random.Random(f"area-{backend}-{p}")
    space = LpSpace(p)
    for _ in range(100):
        x = rand_vector(rng, backend, nonzero=False)
        y = rand_vector(rng, backend, nonzero=False)
        a = (
            Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if backend == "exact"
            else rng.uniform(-3, 3)
        )
        lam = lambda_functional(x, y, space)
        assert lam.value_sq >= 0
        assert lambda_functional(y, x, space).value_sq == pytest.approx(float(lam.value_sq), rel=1e-12, abs=1e-12) if backend == "float" else lambda_functional(y, x, space).value_sq == lam.value_sq
        scaled = lambda_functional(x.scale(a), y, space)
        if backend == "exact":
            assert scaled.value_sq == a * a * lam.value_sq
        else:
            assert scaled.value_sq == pytest.approx(a * a * float(lam.value_sq), rel=1e-10, abs=1e-9)
        bound = norm_sq(x, space) * norm_sq(y, space)
        if backend == "exact":
            assert lam.value_sq <= bound
        else:
            assert lam.value_sq <= float(bound) * (1 + 1e-12) + 1e-12


# -- plane vs subspace ------------------------------------------------------


def test_plane_vs_space_worked_example():
    U = Subspace([sv([1, 1, 2, 3]), sv([2, 1, -3, 2])], L1)
    V = Subspace([sv([1]), sv([0, 1]), sv([0, 0, 1])], L1)
    res = angle_plane_subspace(U, V)
    assert res.cos_sq == Fraction(36, 175)
    assert res.angle_rad == pytest.approx(math.acos(math.sqrt(36 / 175)))


def test_plane_contained_in_subspace():
    U = Subspace([sv([1, 2]), sv([1, -1])], L1)
    V = Subspace([sv([1]), sv([0, 1]), sv([0, 0, 1])], L1)
    assert angle_plane_subspace(U, V).cos_sq == 1


def test_plane_degenerate_u_raises():
    x = sv([1, 2])
    U = Subspace([x, x.scale(2)], L1)
    V = Subspace([sv([1]), sv([0, 1])], L1)
    with pytest.raises(DegenerateSubspaceError):
        angle_plane_subspace(U, V)


def _plane_ratio(u1, u2, V):
    # the defining cos^2 ratio without the [0, 1] guard, so invariance can be
    # asserted even on instances where the ratio escapes the unit interval
    space = V.space
    top = lambda_functional(
        project(u1, V).projected, project(u2, V).projected, space
    ).value_sq
    return Fraction(top) / lambda_functional(u1, u2, space).value_sq


def test_plane_ratio_invariant_under_swap_and_scaling():
    rng = random.Random("plane-moves")
    for _ in range(30):
        V = rand_subspace(rng, "exact", rng.randint(2, 3), L1)
        while True:
            u1 = rand_vector(rng, "exact")
            u2 = rand_vector(rng, "exact")
            if lambda_functional(u1, u2, L1).value_sq != 0:
                break
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        base = _plane_ratio(u1, u2, V)
        assert _plane_ratio(u2, u1, V) == base
        assert _plane_ratio(u1.scale(a), u2, V) == base
        assert _plane_ratio(u1.scale(-a), u2, V) == base


def test_plane_angle_not_invariant_under_shear_in_l1():
    # exact witness: replacing u1 by u1 + u2 changes the ratio in l1, because
    # the area functional is built from |g| values and g is not linear in its
    # first argument.  Kept as a regression anchor for the real behavior.
    u1 = sv([1, 0, 1])
    u2 = sv([0, 1, 1])
    V = Subspace([sv([1]), sv([0, 1])], L1)
    base = angle_plane_subspace(Subspace([u1, u2], L1), V).cos_sq
    sheared = angle_plane_subspace(Subspace([u1.add(u2), u2], L1), V).cos_sq
    assert base == Fraction(1, 12)
    assert sheared == Fraction(1, 8)
    assert base != sheared


def test_p2_plane_angle_matches_principal_angles():
    rng = random.Random("principal-2")
    for _ in range(40):
        t = rng.randint(2, 3)
        V = rand_subspace(rng, "float", t, L2_FLOAT)
        U = rand_subspace(rng, "float", 2, L2_FLOAT)
        res = angle_plane_subspace(U, V)
        ref = np.prod(principal_angle_cosines(U.basis, V.basis))
        assert float(res.cos_sq) == pytest.approx(float(ref) ** 2, abs=1e-9)


def test_plane_ratio_can_exceed_one_in_l1():
    # in l1 the projections can enlarge the area functional, so the cos^2
    # ratio is not confined to [0, 1]; the angle routine refuses to report an
    # out-of-range value instead of silently clamping.  Exact witness.
    V = Subspace([sv([1, 1]), sv([0, 1, -1])], L1)
    u1 = sv([2])
    u2 = sv([0, 0, 1])
    assert _plane_ratio(u1, u2, V) == Fraction(64, 27)
    with pytest.raises(ConsistencyError):
        angle_plane_subspace(Subspace([u1, u2], L1), V)


def test_plane_angle_range_p2():
    rng = random.Random("plane-range")
    space = LpSpace(2.0)
    for _ in range(50):
        V = rand_subspace(rng, "float", rng.randint(2, 3), space)
        U = rand_subspace(rng, "float", 2, space)
        res = angle_plane_subspace(U, V)
        assert 0 <= res.cos_sq <= 1
