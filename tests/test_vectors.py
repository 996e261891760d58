import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gangle import (
    BackendError,
    LpSpace,
    OracleSpace,
    SparseVector,
    check_norm_axioms,
    lp_norm,
    norm,
    norm_sq,
    sgn,
)

from support import rand_float_vector

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
    # overflow inside arithmetic is not checked here (only at construction)
    assert SparseVector([(1, 1e200)]).scale(1e200).items() == ((1, math.inf),)


def test_to_float_drops_underflow():
    v = SparseVector({1: Fraction(1, 10 ** 400), 2: Fraction(1, 3)}).to_float()
    assert v.items() == ((2, 1 / 3),) and v.backend == "float"
    assert SparseVector({1: Fraction(1, 10 ** 400)}).to_float().backend is None


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


# -- norm oracles -----------------------------------------------------------


def test_oracle_axiom_check_accepts_a_norm():
    sup = OracleSpace(lambda x: max((abs(v) for _, v in x), default=0.0), "max")
    check_norm_axioms(sup, random.Random(0))


def test_oracle_axiom_check_rejects_a_non_norm():
    bogus = OracleSpace(lambda x: sum(v for _, v in x) ** 2, "bogus")
    with pytest.raises(ValueError):
        check_norm_axioms(bogus, random.Random(0))
