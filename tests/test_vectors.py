import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gangle import (
    BackendError,
    LpSpace,
    NumericalRangeError,
    OracleSpace,
    SparseVector,
    check_norm_axioms,
    left_orthonormalize,
    lp_norm,
    norm,
    norm_sq,
    sgn,
    vector_angle,
)

from support import exact_sum_by_fractions, rand_float_vector

sv = SparseVector.from_dense


# -- construction and canonicalization --------------------------------------


def test_zero_coefficients_dropped():
    v = SparseVector({1: Fraction(0), 3: Fraction(2), 7: 0})
    assert v.support == (3,)
    assert v == SparseVector({3: 2})


def test_indices_sorted_and_one_based():
    v = SparseVector([(5, 1), (2, 3)])
    assert v.support == (2, 5)
    with pytest.raises(ValueError):
        SparseVector([(0, 1)])
    with pytest.raises(ValueError):
        SparseVector([(2, 1), (2, 1)])


def test_backend_mixing_rejected():
    with pytest.raises(BackendError):
        SparseVector({1: 0.5, 2: Fraction(1, 2)})
    with pytest.raises(BackendError):
        sv([1, 2]).add(sv([0.5]))
    with pytest.raises(BackendError):
        sv([1, 2]).scale(0.5)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_lp_space_rejects_a_non_finite_p(p):
    # at p = inf the lp formulas would give |(0.5, 0.25)| = 1.0, not the max norm
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        LpSpace(p)


def test_lp_space_rejects_a_bool_p():
    # True == 1 would pass the range check and give the l1 norm
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        LpSpace(True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseVector([(1, bad), (2, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        SparseVector({3: bad})
    with pytest.raises(ValueError, match="finite"):
        sv([1.0, bad])


def test_int_coefficients_promote_to_exact():
    assert sv([1, 2]).backend == "exact"
    assert sv([1.0, 2.0]).backend == "float"
    assert SparseVector().backend is None


# -- add / scale / sgn ------------------------------------------------------


def test_add_example():
    assert sv([-2, 0]).add(sv([0, 2])) == sv([-2, 2])


def test_scale_examples():
    x = sv([1, 2])
    assert x.scale(0).is_zero
    assert x.scale(-1) == sv([-1, -2])


def test_sgn():
    assert sgn(-3) == -1
    assert sgn(0) == 0
    assert sgn(2) == 1
    assert sgn(Fraction(-1, 7)) == -1
    assert sgn(0.25) == 1


def test_add_scale_match_dense_reference():
    rng = random.Random(7)
    for _ in range(50):
        x = rand_float_vector(rng)
        y = rand_float_vector(rng)
        a = rng.uniform(-3, 3)
        lhs = np.array(x.add(y.scale(a)).to_dense(8))
        rhs = np.array(x.to_dense(8)) + a * np.array(y.to_dense(8))
        assert np.allclose(lhs, rhs, atol=1e-12)


# -- arithmetic against the validating constructor on dense results ---------

exact_coords = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(-100, 100, max_denominator=12)),
    max_size=8,
)
# Magnitudes from subnormal to 1e150, so products underflow but never overflow.
float_coords = st.lists(
    st.one_of(st.just(0.0), st.floats(-1e150, 1e150, allow_nan=False)), max_size=8
)


def _padded(xs, ys):
    n = max(len(xs), len(ys))  # a plain int 0 is neutral in either backend
    return xs + [0] * (n - len(xs)), ys + [0] * (n - len(ys))


def assert_same_vector(got, ref):
    assert got.items() == ref.items()
    assert [type(v) for _, v in got] == [type(v) for _, v in ref]
    assert got.backend == ref.backend


@pytest.mark.parametrize("coords", [exact_coords, float_coords], ids=["exact", "float"])
@given(data=st.data())
def test_add_sub_equal_constructor_on_dense_result(coords, data):
    xs, ys = _padded(data.draw(coords), data.draw(coords))
    x, y = sv(xs), sv(ys)
    assert_same_vector(x.add(y), sv([a + b for a, b in zip(xs, ys)]))
    assert_same_vector(x.sub(y), sv([a - b for a, b in zip(xs, ys)]))
    assert_same_vector(x.sub(x), SparseVector())


@given(exact_coords, st.one_of(st.integers(-5, 5), st.fractions(max_denominator=7)))
def test_scale_exact_equals_constructor_on_dense_result(xs, a):
    assert_same_vector(sv(xs).scale(a), sv([a * v for v in xs]))


@given(float_coords, st.one_of(st.integers(-5, 5), st.floats(-1e150, 1e150, allow_nan=False)))
def test_scale_float_equals_constructor_on_dense_result(xs, a):
    assert_same_vector(sv(xs).scale(a), sv([a * v for v in xs]))


def test_arithmetic_edge_cases():
    x = sv([Fraction(1, 2), 0, Fraction(-3)])
    # exact cancellation gives the zero vector, whose backend is None
    for zero in (x.sub(x), x.add(x.scale(-1)), x.add(-x)):
        assert zero.is_zero and zero.backend is None and zero == SparseVector()
    # a float product that underflows to 0.0 is dropped
    tiny = SparseVector({1: 1e-200, 2: 1.0}).scale(1e-200)
    assert tiny.support == (2,) and tiny.items() == ((2, 1e-200),)
    assert SparseVector({1: 1e-200}).scale(1e-200).backend is None
    # an int scalar on an exact vector gives Fractions
    doubled = x.scale(2)
    assert doubled == sv([1, 0, -6]) and all(type(v) is Fraction for _, v in doubled)
    assert all(type(v) is float for _, v in sv([1.0, 2.0]).scale(3))
    # float arithmetic that overflows raises the typed error, never holds inf
    with pytest.raises(NumericalRangeError):
        SparseVector([(1, 1e200)]).scale(1e200)
    with pytest.raises(NumericalRangeError):  # the int scalar itself is beyond the float range
        SparseVector([(1, 1e-200)]).scale(10 ** 400)
    big = SparseVector({1: 1e308, 2: 1.0})
    for overflow in (lambda: big.add(big), lambda: big.sub(-big), lambda: big - big.scale(-1.5)):
        with pytest.raises(NumericalRangeError):
            overflow()
    # finite entries whose sum is beyond the float range are no overflow
    wide = SparseVector({1: 1e308, 2: 1e308}).add(SparseVector({1: 5e307}))
    assert wide.items() == ((1, 1e308 + 5e307), (2, 1e308))
    assert SparseVector({1: 1e308, 2: -1e308}).scale(1.5).items() == ((1, 1.5e308), (2, -1.5e308))


def test_an_int_beyond_the_float_range_in_a_float_vector_raises_numerical_range_error():
    # the int is converted to a float, as scale(10 ** 400) on a float vector does
    with pytest.raises(NumericalRangeError):
        SparseVector({1: 10 ** 400, 2: 1.0})
    assert SparseVector({1: 10 ** 300, 2: 1.0}).items() == ((1, 1e300), (2, 1.0))


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_scale_by_a_non_finite_scalar_raises_numerical_range_error(a):
    # |nan| > 1 is False, so no shortcut for small scalars may skip the check
    with pytest.raises(NumericalRangeError):
        SparseVector({1: 1.0, 2: -2.0}).scale(a)


# -- the int form of exact vectors -------------------------------------------

HUGE = 10 ** 60
# numerators small or huge, of either sign; denominators from a set with
# common factors (shared and coprime ones) or huge
fraction_pairs = st.lists(
    st.tuples(
        st.one_of(st.integers(-9, 9), st.integers(-HUGE, HUGE)),
        st.one_of(st.sampled_from([1, 2, 3, 4, 5, 6, 12]), st.integers(1, HUGE)),
    ),
    max_size=12,
)


def exact_sum(pairs) -> Fraction:
    """Sum of n/d over (n, d) int pairs by exact vector addition: every term
    is coordinate 1 of a vector of its own, and each ``add`` merges int
    numerators over the lcm of the two denominators."""
    total = SparseVector()
    for n, d in pairs:
        total = total.add(SparseVector({1: Fraction(n, d)}))
    return dict(total.items()).get(1, Fraction(0))


@given(fraction_pairs)
def test_exact_sum_equals_the_fraction_sum(pairs):
    got, ref = exact_sum(iter(pairs)), exact_sum_by_fractions(pairs)
    assert got == ref and type(got) is Fraction


@pytest.mark.parametrize(
    "pairs,value",
    [
        ([], 0),
        ([(1, 2), (-1, 2)], 0),                      # shared denominator, cancelling
        ([(1, 3), (1, 5)], Fraction(8, 15)),         # coprime denominators
        ([(-3, 4), (1, 6), (5, 4)], Fraction(2, 3)),  # shared and not, reduced
        ([(HUGE + 1, HUGE), (-1, HUGE)], 1),
    ],
)
def test_exact_sum_examples(pairs, value):
    got = exact_sum(pairs)
    assert got == value and type(got) is Fraction


exact_entries = st.dictionaries(
    st.integers(1, 40),
    st.builds(Fraction, st.one_of(st.integers(-9, 9), st.integers(-HUGE, HUGE)),
              st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(1, HUGE))),
    max_size=10,
)


@given(exact_entries, exact_entries)
def test_exact_vectors_keep_int_numerators_over_one_reduced_denominator(xs, ys):
    x, y = SparseVector(xs), SparseVector(ys)
    nonzero = sorted((i, v) for i, v in xs.items() if v)
    assert x.items() == tuple(nonzero)
    assert all(type(i) is int and type(v) is Fraction for i, v in x.items())
    for v in (x, y, x.add(y), x.sub(y), x.scale(Fraction(-3, 4))):
        assert all(type(n) is int for _, n in v._entries)
        assert v._den > 0 and math.gcd(v._den, *(n for _, n in v._entries)) == 1
    assert x.add(y).sub(y) == x
    one_by_one = sum((SparseVector({i: v}) for i, v in xs.items()), SparseVector())
    assert one_by_one == x and hash(one_by_one) == hash(x)
    assert all(x.get(i) == v for i, v in xs.items()) and x.get(41) == 0


def test_equality_and_hash_across_backends_compare_values():
    assert SparseVector({1: 1.0}) == SparseVector({1: 1})
    assert hash(SparseVector({1: 1.0})) == hash(SparseVector({1: 1}))
    assert SparseVector({1: 0.5, 3: 2.0}) == SparseVector({1: Fraction(1, 2), 3: 2})
    assert SparseVector({1: 0.1}) != SparseVector({1: Fraction(1, 10)})
    assert SparseVector() == SparseVector({2: 0.0}) == SparseVector({2: 0})


def test_to_float_drops_underflow():
    v = SparseVector({1: Fraction(1, 10 ** 400), 2: Fraction(1, 3)}).to_float()
    assert v.items() == ((2, 1 / 3),) and v.backend == "float"
    assert SparseVector({1: Fraction(1, 10 ** 400)}).to_float().backend is None


def test_to_float_beyond_the_float_range_raises_numerical_range_error():
    with pytest.raises(NumericalRangeError):
        SparseVector({1: Fraction(10 ** 400), 2: Fraction(1)}).to_float()


# -- norms ------------------------------------------------------------------


def test_norm_examples():
    assert norm(sv([1, 2, 1]), LpSpace(1)) == 4
    assert norm(SparseVector(), LpSpace(3)) == 0
    assert norm(sv([3, 4]), LpSpace(2)) == 5  # exact: 25 is a perfect square


def test_norm_zero_iff_zero_vector():
    assert norm(SparseVector(), LpSpace(1)) == 0
    assert norm(sv([0.0, 1e-30]), LpSpace(2.0)) > 0


def test_exact_norm_limited_to_p_1_2():
    with pytest.raises(BackendError):
        norm(sv([1, 1]), LpSpace(3))
    with pytest.raises(BackendError):
        norm(sv([1, 1]), LpSpace(2))  # sqrt(2) irrational
    assert norm_sq(sv([1, 1]), LpSpace(2)) == 2


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_norm_absolute_homogeneity(coords, a, p):
    x = sv([float(c) for c in coords])
    nx = lp_norm(x, p)
    assert math.isclose(lp_norm(x.scale(a), p), abs(a) * nx, rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_norm_triangle_inequality(xs, ys, p):
    x = sv([float(c) for c in xs])
    y = sv([float(c) for c in ys])
    assert lp_norm(x.add(y), p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-9


@pytest.mark.parametrize("p, scale, values", [
    (1.5, 1e-210, (3.0, 1.0)),
    (1.5, 1e-212, (1.0, -2.0, 0.5)),
    (2.0, 1e-160, (1.0, 1.0)),
    (2.0, 1e-155, (3.0, -4.0)),
    (3.0, 1e-108, (3.0, 1.0)),
    (3.0, 1e-106, (0.25, 1.0, -2.0)),
])
def test_a_float_norm_keeps_its_digits_when_its_power_sum_is_subnormal(p, scale, values):
    x = sv([v * scale for v in values])
    assert 0 < math.fsum(abs(v) ** p for _, v in x) < math.ldexp(1.0, -1022)  # below the normal floats
    nx = lp_norm(x, p)
    # the Fraction shadow: sum |x_i / |x||^p is 1, with each ratio exact
    assert math.fsum(float(abs(Fraction(v) / Fraction(nx))) ** p for _, v in x) == pytest.approx(1, abs=1e-14)


def test_a_starred_vector_of_subnormal_power_sum_has_norm_one():
    starred = left_orthonormalize([sv([3e-108, 1e-108])], LpSpace(3))[0]
    assert float(sum(abs(Fraction(v)) ** 3 for _, v in starred)) ** (1 / 3) == pytest.approx(1, abs=1e-15)


@pytest.mark.parametrize("values, p", [([1e-200, 1e-200], 2.0), ([3e-109, 1e-109], 3.0)], ids=["l2", "l3"])
def test_a_float_norm_whose_power_sum_underflows_to_zero_is_that_of_the_vector_scaled_up(values, p):
    """Each |x_i|^p rounds to 0, so the power sum does for a nonzero x.  The
    norm, and the starred vector x / |x|, are those of x scaled by 2^600."""
    x, up, space = sv(values), sv([math.ldexp(v, 600) for v in values]), LpSpace(p)
    assert sum(abs(v) ** p for v in values) == 0.0
    assert norm(x, space) == pytest.approx(math.ldexp(norm(up, space), -600), rel=1e-15)
    starred, starred_up = (left_orthonormalize([v], space)[0] for v in (x, up))
    assert starred.to_dense() == pytest.approx(starred_up.to_dense(), rel=1e-15)


def test_a_float_norm_at_a_huge_p_is_that_of_its_largest_entry():
    """At p = 1080 and 2000 the power 0.5^p underflows to 0, where x / m, m
    the largest |entry|, has the power sum 1: the norm is m, and the unit
    vector (1.0,)."""
    half = SparseVector({1: 0.5})
    assert lp_norm(half, 1080) == 0.5
    assert norm(half, LpSpace(2000)) == 0.5
    assert left_orthonormalize([half], LpSpace(2000.0)) == [SparseVector({1: 1.0})]


def test_a_squared_norm_that_underflows_still_raises_in_an_angle():
    """|x| = 1.4e-200 is a float and |x|^2 is not: ``norm_sq`` rounds it to
    0.0, and the angle that divides by it raises NumericalRangeError."""
    x = sv([1e-200, 1e-200])
    assert norm(x, LpSpace(2)) > 0 and norm_sq(x, LpSpace(2)) == 0.0
    with pytest.raises(NumericalRangeError):
        vector_angle(x, x, LpSpace(2))


# -- norm oracles -----------------------------------------------------------


def test_oracle_axiom_check_accepts_a_norm():
    sup = OracleSpace(lambda x: max((abs(v) for _, v in x), default=0.0), "max")
    check_norm_axioms(sup, random.Random(0))


def test_an_oracle_norm_that_is_nan_negative_or_inf_raises():
    x = SparseVector({1: 1.0})
    for value in (math.nan, -1.0):
        bad = OracleSpace(lambda v, value=value: value, "bad")
        for f in (norm, norm_sq):
            with pytest.raises(ValueError, match="negative value or NaN"):
                f(x, bad)
    infinite = OracleSpace(lambda v: math.inf, "inf")
    for f in (norm, norm_sq):
        with pytest.raises(NumericalRangeError):
            f(x, infinite)
    half = OracleSpace(lambda v: Fraction(3, 2), "exact")  # exact oracle values stay exact
    assert norm(x, half) == Fraction(3, 2) and norm_sq(x, half) == Fraction(9, 4)


def test_oracle_axiom_check_rejects_a_non_norm():
    bogus = OracleSpace(lambda x: sum(v for _, v in x) ** 2, "bogus")
    with pytest.raises(ValueError):
        check_norm_axioms(bogus, random.Random(0))
