import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gangle import (
    BackendError,
    EstimationFailureError,
    GAngleError,
    LpSpace,
    NumericalRangeError,
    OracleSpace,
    SparseVector,
    TauPair,
    ZeroVectorError,
    g,
    g_explicit,
    g_from_norm,
    gram,
    lp_norm,
    norm,
    norm_sq,
    tau,
)
from gangle.semi_inner import _exponent, g_functional

from support import (
    g_explicit_by_get,
    g_from_norm_l1_by_vectors,
    g_l1_by_signs,
    l1_norm_by_abs,
    lp_norm_by_fractions,
    norm_sq_by_fractions,
    rand_exact_vector,
    rand_float_vector,
    rand_vector,
    tau_float_by_unscaled_steps,
    tau_float_by_vectors,
    tau_l1_by_full_norms,
    tau_l1_by_vectors,
    tau_oracle_by_vectors,
)

sv = SparseVector.from_dense
L1 = LpSpace(1)
MAX_NORM = OracleSpace(lambda v: max((abs(c) for _, c in v), default=0.0), "max")


# -- tau --------------------------------------------------------------------


def test_tau_l1_kink():
    pair = tau(sv([1]), sv([0, 1]), L1)
    assert pair.tau_plus == 1
    assert pair.tau_minus == -1
    assert pair.step_used == 0


def test_tau_along_itself_l1():
    x = sv([1, 1])
    pair = tau(x, x, L1)
    assert pair.tau_plus == pair.tau_minus == 2


def test_tau_euclidean_gradient():
    pair = tau(sv([3.0, 4.0]), sv([1.0, 0.0]), LpSpace(2.0))
    assert pair.tau_plus == pytest.approx(0.6, abs=1e-10)
    assert pair.tau_minus == pytest.approx(0.6, abs=1e-10)


def test_tau_zero_base_vector_rejected():
    with pytest.raises(ZeroVectorError):
        tau(SparseVector(), sv([1]), L1)


def test_tau_order_and_bound():
    rng = random.Random(11)
    for p in (1.0, 1.5, 2.0, 3.0):
        space = LpSpace(p)
        for _ in range(50):
            x = rand_float_vector(rng)
            y = rand_float_vector(rng, nonzero=False)
            pair = tau(x, y, space)
            ny = float(norm(y, space))
            assert pair.tau_minus <= pair.tau_plus + 1e-9
            assert abs(pair.tau_plus) <= ny + 1e-8
            assert abs(pair.tau_minus) <= ny + 1e-8


def test_tau_exact_mode_requires_p1():
    with pytest.raises(BackendError):
        tau(sv([1, 1]), sv([1]), LpSpace(2))


def test_tau_oracle_one_sided():
    sup = OracleSpace(lambda v: max((abs(c) for _, c in v), default=0.0), "max")
    pair = tau(sv([1.0]), sv([0.0, 1.0]), sup)
    # sup norm of (1, t) is constant 1 near t = 0
    assert pair.tau_plus == pytest.approx(0.0, abs=1e-8)
    assert pair.tau_minus == pytest.approx(0.0, abs=1e-8)
    assert pair.step_used > 0


def test_tau_oracle_nonconvergent_reports_estimates():
    rng = random.Random(3)
    noisy = OracleSpace(
        lambda v: sum(abs(c) for _, c in v) * (1 + 0.01 * rng.random()), "noisy"
    )
    with pytest.raises(EstimationFailureError) as exc:
        tau(sv([1.0]), sv([1.0]), noisy)
    assert exc.value.last_two is not None
    assert len(exc.value.last_two) == 2


ORACLES = (
    MAX_NORM,
    OracleSpace(lambda v: sum(abs(c) for _, c in v), "taxicab"),
    OracleSpace(lambda v: sum(c ** 4 for _, c in v) ** 0.25, "l4"),
)


def _tau_outcome(route, x, y, space):
    try:
        return repr(route(x, y, space))
    except (GAngleError, ArithmeticError) as exc:  # by type, message and last estimates
        return type(exc), str(exc), repr(getattr(exc, "last_two", None))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_oracle_tau_equals_the_vector_route_across_magnitudes(data):
    exact = data.draw(st.booleans(), "exact")
    values = st.builds(
        (lambda m, e: m * Fraction(10) ** e) if exact else (lambda m, e: m * 10.0 ** e),
        st.integers(-99, 99).filter(bool),
        st.integers(-300, 300),
    )
    vectors = st.dictionaries(st.integers(1, 8), values, min_size=1, max_size=6).map(SparseVector)
    x, y = data.draw(vectors, "x"), data.draw(vectors, "y")
    space = data.draw(st.sampled_from(ORACLES), "space")
    assert _tau_outcome(tau, x, y, space) == _tau_outcome(tau_oracle_by_vectors, x, y, space)


def test_oracle_tau_raises_as_the_vector_route():
    root = OracleSpace(lambda v: sum(abs(c) ** 0.5 for _, c in v), "root")  # q(t) = t^-0.5
    cases = [  # x + t*y overflows at the first step; the quotients diverge
        (SparseVector({1: sys.float_info.max}), SparseVector({1: 1e308}), ORACLES[1], NumericalRangeError),
        (SparseVector({1: 1.0}), SparseVector({2: 1.0}), root, EstimationFailureError),
    ]
    for x, y, space, error in cases:
        ref = _tau_outcome(tau_oracle_by_vectors, x, y, space)
        assert ref[0] is error
        assert _tau_outcome(tau, x, y, space) == ref


def test_float_tau_that_overflows_raises_instead_of_returning_nan():
    # |x + t*y|^2 overflows at every step, so every quotient is NaN
    x = SparseVector({1: 1e200, 2: 1e200})
    y = SparseVector({1: 1.0})
    with pytest.raises(EstimationFailureError) as exc:
        tau(x, y, LpSpace(2))
    assert len(exc.value.last_two) == 2
    with pytest.raises(EstimationFailureError):
        g_from_norm(x, y, LpSpace(2))


# -- g, both routes ---------------------------------------------------------


def test_g_on_own_vector_is_squared_norm():
    x = sv([1, 2, 1])
    assert g_explicit(x, x, 1) == 16


def test_g_perpendicular_axes_l1():
    assert g_from_norm(sv([1]), sv([0, 1]), L1) == 0


def test_g_euclidean_matches_dot_product():
    assert g_from_norm(sv([3.0, 4.0]), sv([1.0, 0.0]), LpSpace(2.0)) == pytest.approx(3.0, abs=1e-9)
    assert g_explicit(sv([3, 4]), sv([1]), 2) == 3


def test_g_nonsymmetry_witness_l1():
    x = sv([1, 1])
    y = sv([-1, 2])
    assert g_explicit(y, x, 1) == 0
    assert g_explicit(x, y, 1) == 2


def test_g_all_nine_pairs():
    x1 = sv([1, 2])
    x2 = sv([2, 1])
    for a in (x1, x2):
        for b in (x1, x2):
            assert g_explicit(a, b, 1) == 9


def test_g_four_coordinate_pair():
    u1 = sv([1, 1, 2, 3])
    u2 = sv([2, 1, -3, 2])
    assert g_explicit(u1, u2, 1) == 14
    assert g_explicit(u2, u1, 1) == 24


def test_g_zero_first_argument_convention():
    assert g_explicit(SparseVector(), sv([1, 2]), 1) == 0
    assert g_from_norm(SparseVector(), sv([1, 2]), L1) == 0


# -- the four defining properties plus linearity ----------------------------

PS_EXACT = (1, 2)
PS_FLOAT = (1.5, 3.0)


def _rel_ok(lhs, rhs, scale):
    return abs(lhs - rhs) <= 1e-12 * max(abs(scale), 1.0)


@pytest.mark.parametrize("p", PS_EXACT)
def test_defining_properties_exact(p):
    rng = random.Random(100 + p)
    space = LpSpace(p)
    for _ in range(200):
        x = rand_exact_vector(rng)
        y = rand_exact_vector(rng, nonzero=False)
        z = rand_exact_vector(rng, nonzero=False)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) or Fraction(1)
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) or Fraction(1)
        assert g_explicit(x, x, p) == norm_sq(x, space)
        assert g_explicit(x.scale(a), y.scale(b), p) == a * b * g_explicit(x, y, p)
        assert g_explicit(x, x.add(y), p) == norm_sq(x, space) + g_explicit(x, y, p)
        assert g_explicit(x, y, p) ** 2 <= norm_sq(x, space) * norm_sq(y, space)
        assert g_explicit(x, y.scale(a).add(z.scale(b)), p) == a * g_explicit(x, y, p) + b * g_explicit(x, z, p)


@pytest.mark.parametrize("p", PS_FLOAT)
def test_defining_properties_float(p):
    rng = random.Random(200)
    space = LpSpace(p)
    for _ in range(200):
        x = rand_float_vector(rng)
        y = rand_float_vector(rng, nonzero=False)
        z = rand_float_vector(rng, nonzero=False)
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        nsx = norm_sq(x, space)
        nsy = norm_sq(y, space)
        assert _rel_ok(g_explicit(x, x, p), nsx, nsx)
        assert _rel_ok(
            g_explicit(x.scale(a), y.scale(b), p),
            a * b * g_explicit(x, y, p),
            abs(a * b) * math.sqrt(nsx * nsy),
        )
        assert _rel_ok(
            g_explicit(x, x.add(y), p),
            nsx + g_explicit(x, y, p),
            nsx + math.sqrt(nsx * nsy),
        )
        assert g_explicit(x, y, p) ** 2 <= nsx * nsy * (1 + 1e-12)
        assert _rel_ok(
            g_explicit(x, y.scale(a).add(z.scale(b)), p),
            a * g_explicit(x, y, p) + b * g_explicit(x, z, p),
            (abs(a) + abs(b)) * math.sqrt(nsx) * 10,
        )


def test_p2_symmetry_is_dot_product():
    rng = random.Random(5)
    for _ in range(100):
        x = rand_exact_vector(rng)
        y = rand_exact_vector(rng)
        dot = sum((v * y.get(i) for i, v in x), Fraction(0))
        assert g_explicit(x, y, 2) == g_explicit(y, x, 2) == dot


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
def test_explicit_agrees_with_definition(p):
    rng = random.Random(int(p * 10))
    space = LpSpace(p)
    for _ in range(100):
        x = rand_float_vector(rng)
        y = rand_float_vector(rng, nonzero=False)
        bound = 1e-8 * float(norm(x, space)) * max(float(norm(y, space)), 1e-9)
        assert abs(g_explicit(x, y, p) - g_from_norm(x, y, space)) <= max(bound, 1e-12)


def test_explicit_equals_definition_exactly_for_p1_rational():
    rng = random.Random(9)
    for _ in range(100):
        x = rand_exact_vector(rng)
        y = rand_exact_vector(rng, nonzero=False)
        assert g_explicit(x, y, 1) == g_from_norm(x, y, L1)


def test_dispatcher_uses_definition_for_oracles():
    taxicab = OracleSpace(lambda v: sum(abs(c) for _, c in v), "taxicab")
    x = sv([1.0, 1.0])
    y = sv([-1.0, 2.0])
    assert g(x, y, taxicab) == pytest.approx(2.0, abs=1e-8)
    assert g(x, y, LpSpace(1.0)) == 2.0


# -- the linear-time kernels against their straightforward forms -------------


def _kernel_pairs(rng, backend, n=60):
    """Pairs with shared, disjoint and cancelling supports, at several
    magnitudes in float mode."""
    for k in range(n):
        x = rand_vector(rng, backend, max_index=12, max_terms=8)
        if backend == "float":
            x = x.scale(rng.choice([1.0, 1e-30, 1e30]))
        kind = k % 4
        if kind == 0:
            y = rand_vector(rng, backend, max_index=12, max_terms=8, nonzero=False)
        elif kind == 1:  # x + t*y is exactly zero at the first step t = 2^-4
            y = x.scale(-16)
        elif kind == 2:  # supports disjoint from x
            y = SparseVector((i + 12, v) for i, v in rand_vector(rng, backend, max_terms=3))
        else:
            y = x.add(rand_vector(rng, backend, max_index=3, max_terms=2))
        yield x, y


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
def test_float_tau_equals_the_vector_route_exactly(p):
    rng = random.Random(int(p * 100))
    for x, y in _kernel_pairs(rng, "float"):
        if y.is_zero:
            continue
        if p == 1:
            ref = tau_l1_by_vectors(x, y)
        else:
            value, step = tau_float_by_vectors(x, y, p)
            ref = TauPair(value, value, step)
        assert tau(x, y, LpSpace(p)) == ref, (x, y)


def test_tau_stays_close_to_the_earlier_routes_at_ordinary_magnitudes():
    """Summing the changed terms, taking central differences from per-term
    differences at scaled steps, and the oracle's Richardson steps move tau
    by round-off and truncation only.
    On pairs with entries in [-5, 5]: within 1e-10 * |y|_1 of the quotients
    of whole l1 norms, within 1e-8 * |y| of central differences of whole
    norms at the steps 2^-k, and under an oracle equal to the quotient-
    agreement route for a piecewise-linear norm and within 1e-4 * |y| of it
    for the smooth l4 norm, where that route stops with an O(t) error."""
    rng = random.Random(21)
    for _ in range(200):
        x = rand_float_vector(rng, max_index=12, max_terms=8)
        y = rand_float_vector(rng, max_index=12, max_terms=8)
        ref = tau_l1_by_full_norms(x, y)
        pair = tau(x, y, L1)
        bound = 1e-10 * lp_norm(y, 1)
        assert abs(pair.tau_plus - ref.tau_plus) <= bound and abs(pair.tau_minus - ref.tau_minus) <= bound
        for p in (1.5, 2.0, 3.0):
            value, _ = tau_float_by_unscaled_steps(x, y, p)
            assert abs(tau(x, y, LpSpace(p)).tau_plus - value) <= 1e-8 * lp_norm(y, p), (x, y, p)
        for space in ORACLES:
            pair, ref = tau(x, y, space), tau_oracle_by_vectors(x, y, space, richardson=False)
            assert repr(pair) == repr(tau_oracle_by_vectors(x, y, space))
            if space.name == "l4":
                bound = 1e-4 * norm(y, space)
                assert abs(pair.tau_plus - ref.tau_plus) <= bound and abs(pair.tau_minus - ref.tau_minus) <= bound
            else:
                assert pair == ref


def test_float_l1_tau_is_not_absorbed_by_a_large_norm():
    # |x|_1 = 1e20 + 1 absorbs x + t*y at t* = 0.5 when whole norms are summed
    x, y = SparseVector({1: 1e20, 2: 1.0}), SparseVector({2: 1.0})
    assert tau(x, y, L1) == TauPair(1.0, 1.0, 0)
    assert g_from_norm(x, y, L1) == 1e20


@pytest.mark.parametrize(
    "x,y,p",
    [
        ({1: 1e100, 2: 1e100}, {1: 1.0}, 2),  # |x| absorbs every step 2^-k
        ({1: 3e-6, 2: -2e-6}, {1: 1.0, 2: 1.0}, 2),  # the steps 2^-k stop before reaching |x|
        ({1: 3e-6, 2: -2e-6}, {1: 1.0, 2: 1.0}, 3),
        ({1: 3e-9, 2: -2e-9}, {1: 1.0, 2: 1.0}, 1.5),
        # |x| / |y| = 1e6, but |x_2 + t*y_2|^p has its kink at t = -1
        ({1: 1e6, 2: 1.0}, {2: 1.0}, 1.5),
        ({1: 1e6, 2: 1.0}, {2: 1.0}, 2),
        ({1: 1e6, 2: 1.0}, {2: 1.0}, 3),
        ({1: 1e6, 2: 1.0}, {1: 1.0, 2: 1.0}, 1.5),
    ],
)
def test_g_from_norm_holds_where_x_and_y_differ_in_magnitude(x, y, p):
    x, y, space = SparseVector(x), SparseVector(y), LpSpace(p)
    assert abs(g_from_norm(x, y, space) - g(x, y, space)) <= 1e-9 * norm(x, space) * norm(y, space)


def test_g_from_norm_holds_where_entries_span_orders_of_magnitude():
    """Entries m * 10^e, e in [-6, 6], within each vector: the step scale
    |x| / |y| and the kinks at t = -x_i / y_i of the smaller pairs lie orders
    of magnitude apart, and |x + t*y| is dominated by entries whose change
    with t is far below its last bit."""
    rng = random.Random(2021)
    for _ in range(300):
        x, y = (
            SparseVector({i: rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(-6, 6)
                          for i in rng.sample(range(1, 9), rng.randint(1, 6))})
            for _ in range(2)
        )
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            gap = g_from_norm(x, y, space) - g(x, y, space)
            assert abs(gap) <= 1e-9 * norm(x, space) * norm(y, space), (x, y, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_g_from_norm_scales_with_its_first_argument(data):
    """g is homogeneous in x and scaling by a power of two is exact in
    floats, so g_from_norm(2^a x, y) is 2^a g_from_norm(x, y) up to
    round-off: the central-difference steps follow the scale of x."""
    entries = st.integers(-99, 99).filter(bool).map(float)
    vectors = st.dictionaries(st.integers(1, 8), entries, min_size=1, max_size=6).map(SparseVector)
    x, y = data.draw(vectors, "x"), data.draw(vectors, "y")
    a = data.draw(st.integers(-200, 200), "a")
    space = LpSpace(data.draw(st.sampled_from((1.5, 2.0, 3.0)), "p"))
    factor = math.ldexp(1.0, a)
    gap = g_from_norm(x.scale(factor), y, space) - factor * g_from_norm(x, y, space)
    assert abs(gap) <= 1e-9 * factor * norm(x, space) * norm(y, space)


@pytest.mark.parametrize("scale", (1e20, 1e-20))
def test_oracle_g_from_norm_holds_where_x_and_y_differ_in_magnitude(scale):
    """The oracle steps follow |x| / |y|: at the steps 2^-k alone,
    x = 1e20 * (3, -2) absorbs every t*y and g_from_norm gives 0.0, and
    every step is far larger than x = 1e-20 * (3, -2)."""
    x, y, l4 = SparseVector({1: 3 * scale, 2: -2 * scale}), SparseVector({1: 1.0, 2: 1.0}), ORACLES[2]
    gap = g_from_norm(x, y, l4) - g_explicit(x, y, 4)
    assert abs(gap) <= 1e-9 * norm(x, l4) * norm(y, l4)


@pytest.mark.parametrize(
    "x, y, value",
    [  # the closed form: tau+- = sum of sgn(x_i) * y_i, as supp y lies in supp x
        ({1: Fraction(10) ** 20, 2: 1}, {2: 1}, 1),
        ({1: 3 * Fraction(10) ** -20, 2: -2 * Fraction(10) ** -20}, {1: 1, 2: 1}, 0),
    ],
)
def test_exact_oracle_steps_stay_below_the_kinks_of_x(x, y, value):
    """Exact x + t*y absorbs no step, so exact oracle steps are 2^-k where
    |x| >= |y|: scaled up to 2^(e_x - e_y - k) for x = (1e20, 1) they pass
    the kink at t = -1 and tau- comes out -1.  Where |x| << |y| they shrink:
    at 2^-k they pass both kinks of x = 1e-20 * (3, -2), at |t| = 2e-20."""
    x, y, taxicab = SparseVector(x), SparseVector(y), ORACLES[1]
    pair = tau(x, y, taxicab)
    assert (pair.tau_plus, pair.tau_minus) == (value, value)
    assert g_from_norm(x, y, taxicab) == g_explicit(x, y, 1) == value * lp_norm(x, 1)


def test_exponent_brackets_the_size():
    """2^(e-1) <= size < 2^e: as math.frexp gives it for floats, subnormals
    included, and checked by exact powers of two for Fractions near 2^k and
    far beyond the float range.  A size of 0 (a norm that underflowed)
    takes the exponent of v's largest |entry|."""
    v = SparseVector({1: 1.0})
    tiny = sys.float_info.min
    for size in (5e-324, 1e-320, tiny / 3, tiny, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 2.0 ** 52 + 1, sys.float_info.max):
        assert _exponent(size, v) == math.frexp(size)[1]
    rng = random.Random(7)
    sizes = [Fraction(10) ** 400, Fraction(10) ** -400, Fraction(3, 10 ** 400), Fraction(10 ** 400 + 1, 7)]
    for k in (-1400, -1329, -1, 0, 1, 1329, 1400):  # 10^+-400 lies near 2^+-1329
        for eps in (0, Fraction(1, 10 ** 30), -Fraction(1, 10 ** 30), Fraction(1, 3), -Fraction(1, 3)):
            sizes.append(Fraction(2) ** k * (1 + eps))
    sizes += [Fraction(rng.randrange(1, 10 ** 130), rng.randrange(1, 10 ** 130)) for _ in range(200)]
    for size in sizes:
        e = _exponent(size, v)
        assert Fraction(2) ** (e - 1) <= size < Fraction(2) ** e
    assert _exponent(0.0, SparseVector({1: 5e-324, 2: -1e-320})) == math.frexp(1e-320)[1]


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_float_tau_where_the_norm_of_y_underflows(p):
    """The power sum of y underflows to 0 for y = (5e-324,), and at p = 2
    and 3 for y = 1e-200 * (1, 1); the norm is taken rescaled.  The steps
    that would reach y = 5e-324 overflow, so tau raises where it gave 0.0,
    and y = 1e-200 * (1, 1) keeps its value.  |y|_1 bounds |y|."""
    x, space = SparseVector({1: 1.0}), LpSpace(p)
    tiny, small = SparseVector({1: 5e-324}), SparseVector({1: 1e-200, 2: 1e-200})
    assert norm(tiny, space) == 5e-324
    for route in (tau, g_from_norm):
        with pytest.raises(NumericalRangeError):
            route(x, tiny, space)
    gap = g_from_norm(x, small, space) - g(x, small, space)
    assert abs(gap) <= 1e-9 * norm(x, space) * lp_norm(small, 1)


def test_a_nonconvergent_oracle_reports_its_last_two_quotients():
    # q(t) = t^-0.5 never settles; the schedule ends at the steps 2^-39, 2^-40
    root = OracleSpace(lambda v: sum(abs(c) ** 0.5 for _, c in v), "root")
    with pytest.raises(EstimationFailureError) as exc:
        tau(SparseVector({1: 1.0}), SparseVector({2: 1.0}), root)
    before, last = exc.value.last_two
    assert last == 2.0 ** 20
    assert before == pytest.approx(2.0 ** 19.5, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float_l1_tau_equals_the_vector_route_across_magnitudes(data):
    values = st.builds(
        lambda m, e: m * 10.0 ** e,
        st.integers(-99, 99).filter(bool).map(float),
        st.integers(-300, 300),
    )
    vectors = st.dictionaries(st.integers(1, 8), values, min_size=1, max_size=6).map(SparseVector)
    x, y = data.draw(vectors, "x"), data.draw(vectors, "y")
    try:
        ref = tau_l1_by_vectors(x, y)
    except (NumericalRangeError, ZeroDivisionError):  # the latter when t* underflows to 0
        ref = None
    if ref is not None and math.isfinite(ref.tau_plus) and math.isfinite(ref.tau_minus):
        assert repr(tau(x, y, L1)) == repr(ref)
    else:  # where the vector route overflows, float l1 tau raises
        with pytest.raises(NumericalRangeError):
            tau(x, y, L1)


@pytest.mark.parametrize(
    "x,y",
    [
        ({1: 1e300}, {1: 1e-300, 2: 1.0}),  # t* = inf
        ({1: 1e308}, {1: 1.0, 2: 1e308}),  # t* * y_2 = inf
        ({1: 1e-300}, {1: 1e300}),  # t* underflows to 0
    ],
    ids=["tstar-inf", "step-inf", "tstar-zero"],
)
def test_float_l1_tau_beyond_the_float_range_raises_numerical_range_error(x, y):
    with pytest.raises(NumericalRangeError):
        tau(SparseVector(x), SparseVector(y), L1)


OVERFLOW = "overflow"


def _reference_outcome(f, *args):
    """repr of f(*args), or OVERFLOW where it raises NumericalRangeError or
    ZeroDivisionError (an l1 t* that underflows to 0) or is not finite."""
    try:
        value = f(*args)
    except (NumericalRangeError, ZeroDivisionError):
        return OVERFLOW
    parts = (value.tau_plus, value.tau_minus) if isinstance(value, TauPair) else (value,)
    return repr(value) if all(map(math.isfinite, parts)) else OVERFLOW


def _library_outcome(f, *args):
    try:
        return repr(f(*args))
    except NumericalRangeError:
        return OVERFLOW


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float_l1_equals_the_sign_and_abs_routes_across_magnitudes(data):
    values = st.builds(
        lambda sign, m, e: sign * m * 10.0 ** e,
        st.sampled_from((-1.0, 1.0)),
        st.floats(1.0, 9.99),
        st.integers(-320, 307),
    )
    vectors = st.dictionaries(st.integers(1, 8), values, min_size=1, max_size=6).map(SparseVector)
    x, y = data.draw(vectors, "x"), data.draw(vectors, "y")
    pairs = [
        (lambda: lp_norm(x, 1), lambda: l1_norm_by_abs(x)),
        (lambda: g(x, y, L1), lambda: g_l1_by_signs(x, y)),
        (lambda: g(y, x, L1), lambda: g_l1_by_signs(y, x)),
        (lambda: tau(x, y, L1), lambda: tau_l1_by_vectors(x, y)),
        (lambda: g_from_norm(x, y, L1), lambda: g_from_norm_l1_by_vectors(x, y)),
    ]
    for library, reference in pairs:
        assert _library_outcome(library) == _reference_outcome(reference), (x, y)


@pytest.mark.parametrize("backend,ps", [("exact", (1, 2)), ("float", (1.0, 1.5, 2.0, 3.0))])
def test_g_explicit_equals_the_get_route_exactly(backend, ps):
    rng = random.Random(len(ps))
    for x, y in _kernel_pairs(rng, backend):
        for p in ps:
            for a, b in ((x, y), (y, x)):
                got, ref = g_explicit(a, b, p), g_explicit_by_get(a, b, p)
                assert got == ref and type(got) is type(ref), (a, b, p)


# -- g_functional: one first argument, many second arguments ----------------

FUNCTIONAL_PS = [("float", 1.0), ("float", 1.5), ("float", 2.0), ("float", 3.0), ("exact", 1), ("exact", 2)]


def _values(backend):
    """Nonzero coefficients: rationals, or floats from 1e-20 to 1e21."""
    if backend == "exact":
        return st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 9))
    return st.builds(
        lambda m, e: m * 10.0 ** e,
        st.integers(-99, 99).filter(bool).map(float),
        st.integers(-20, 19),
    )


def _vectors(backend, first=1, last=12, min_size=0, max_size=8):
    return st.dictionaries(
        st.integers(first, last), _values(backend), min_size=min_size, max_size=max_size
    ).map(SparseVector)


@pytest.mark.parametrize("backend,p", FUNCTIONAL_PS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_reused_functional_keeps_no_state_between_calls(backend, p, data):
    x = data.draw(_vectors(backend), "x")
    ys = [
        data.draw(_vectors(backend, first=13, last=20), "disjoint"),
        x,
        SparseVector(),
        data.draw(_vectors(backend, last=40, min_size=16, max_size=24), "long"),
        data.draw(_vectors(backend, max_size=1), "short"),
    ] + data.draw(st.lists(_vectors(backend), max_size=3), "more")
    g_x = g_functional(x, LpSpace(p))
    for y in ys + ys[::-1]:
        got, ref = g_x(y), g_explicit_by_get(x, y, p)
        assert got == ref and type(got) is type(ref), (x, y)


@pytest.mark.parametrize("backend,p", FUNCTIONAL_PS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gram_equals_the_pairwise_reference_exactly(backend, p, data):
    nonzero = _vectors(backend).filter(lambda v: not v.is_zero)
    basis = data.draw(st.lists(nonzero, min_size=1, max_size=5), "basis")
    matrix = gram(basis, LpSpace(p)).matrix
    ref = tuple(tuple(g_explicit_by_get(a, b, p) for b in basis) for a in basis)
    assert matrix == ref
    assert [type(v) for row in matrix for v in row] == [type(v) for row in ref for v in row]


def _route_outcome(compute):
    """Value, type and repr of compute(), or the type of the GAngleError it
    raises."""
    try:
        value = compute()
    except GAngleError as exc:
        return type(exc)
    return value, type(value), repr(value)


def _magnitudes(backend, wide):
    """Nonzero coefficients from 1e-150 to about 1e152, or floats of full
    mantissas in (-10, 10), whose sums round."""
    mantissas = st.integers(-99, 99).filter(bool)
    if backend == "exact":
        return st.builds(lambda m, e: m * Fraction(10) ** e, mantissas, st.integers(-150, 150))
    if not wide:
        return st.floats(-10.0, 10.0, allow_subnormal=False).filter(bool)
    return st.builds(lambda m, e: m * 10.0 ** e, mantissas.map(float), st.integers(-150, 150))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_single_g_equals_its_map_across_magnitudes(data):
    """``g`` weighs only the shared support and a map weighs all of x; both
    give the same bits, or raise the same typed error: an exact x at
    p = 1.5, a y of the other backend, an overflowing norm and an infinite
    g."""
    backend = data.draw(st.sampled_from(("exact", "float")), "backend")
    p = data.draw(st.sampled_from((1, 2, 1.5) if backend == "exact" else (1.0, 1.5, 2.0, 3.0)), "p")
    other = {"exact": "float", "float": "exact"}[backend]
    y_backend = data.draw(st.sampled_from((backend,) * 4 + (other,)), "backend of y")
    wide = data.draw(st.booleans(), "wide")
    x = data.draw(st.dictionaries(st.integers(1, 8), _magnitudes(backend, wide), max_size=8).map(SparseVector), "x")
    y = data.draw(
        st.one_of(
            st.dictionaries(st.integers(1, 8), _magnitudes(y_backend, wide), max_size=8),  # overlapping
            st.dictionaries(st.integers(9, 16), _magnitudes(y_backend, wide), max_size=8),  # disjoint
            st.just({}),
        ).map(SparseVector),
        "y",
    )
    space = LpSpace(p)
    assert _route_outcome(lambda: g(x, y, space)) == _route_outcome(lambda: g_functional(x, space)(y))


@pytest.mark.parametrize(
    "x,y,p,error",
    [
        (sv([1, 2]), sv([2, 1]), 1.5, BackendError),  # exact x at p = 1.5
        (sv([1, 2]), sv([2.0, 1.0]), 1, BackendError),
        (sv([1.0, 2.0]), sv([2, 1]), 3.0, BackendError),
        (SparseVector({1: 1e-300}), sv([1]), 1.5, BackendError),  # the tiny |x| needs no check of its own
        (SparseVector({1: 1e150}), sv([1.0]), 3.0, NumericalRangeError),  # |x|^3 overflows
        (SparseVector({1: 0.5}), sv([1.0]), 2000.0, NumericalRangeError),  # |x / 2^e|^(2-p) can overflow
        (SparseVector({1: 1e100, 2: 1.0}), SparseVector({1: 1e300}), 3.0, NumericalRangeError),  # g is inf
    ],
    ids=["exact-p1.5", "exact-float", "float-exact", "tiny-norm-mixed", "huge-norm", "huge-p", "infinite-g"],
)
def test_a_single_g_raises_as_its_map(x, y, p, error):
    space = LpSpace(p)
    assert _route_outcome(lambda: g(x, y, space)) is error
    assert _route_outcome(lambda: g_functional(x, space)(y)) is error


def _rescaled_g(x, y, p):
    """g(x, y) as 2^-k * g(2^k * x, y), k bringing |2^k * x| near 1: the
    scaling by a power of two is exact, and g is homogeneous in x."""
    k = -math.frexp(max(abs(v) for _, v in x))[1]  # in two halves, as 2^k can exceed the float range
    return math.ldexp(g(x.scale(math.ldexp(1.0, k // 2)).scale(math.ldexp(1.0, k - k // 2)), y, LpSpace(p)), -k)


@pytest.mark.parametrize(
    "x,y,p",
    [
        (SparseVector({1: 1e-300, 2: 1e-300}), sv([1.0]), 3.0),  # |x|^3 and each |x_i|^2 underflow
        (SparseVector({1: 1e-300}), sv([1.0]), 1.5),  # |x|^1.5 underflows
        (SparseVector({1: 5e-324, 3: -2e-310}), sv([2.0, 0.0, 1e300]), 3.0),  # subnormal entries
        (SparseVector({1: 2.0**-22}), sv([1.0]), 48.6),  # |x|^p = 2^-1069.2, |x|^(2-p) overflows
    ],
    ids=["tiny-norm", "tiny-norm-p1.5", "subnormal", "large-p"],
)
def test_a_tiny_float_x_gives_g_by_scaling(x, y, p):
    """Where |x|^p underflows, or |x|^(2-p) overflows, g is formed on
    x / 2^e, 2^(e-1) <= |x| < 2^e, and scaled back: the single g and the
    map agree bit for bit, and lie within 1e-14 of g taken on x scaled
    near 1."""
    single, mapped = g(x, y, LpSpace(p)), g_functional(x, LpSpace(p))(y)
    assert repr(single) == repr(mapped)
    assert single == pytest.approx(_rescaled_g(x, y, p), rel=1e-14) and single != 0.0


# -- exact kernels on int numerators against the Fraction-object sums --------


def _exact_outcome(f, *args):
    """Value and type of f(*args), or the name of the error it raises."""
    try:
        value = f(*args)
    except BackendError:  # an irrational exact 2-norm
        return "BackendError"
    return value, type(value)


def _wide_fractions():
    """Small rationals and ones with 30-digit numerators and denominators."""
    huge = 10 ** 30
    return st.one_of(
        _values("exact"),
        st.builds(Fraction, st.integers(-huge, huge).filter(bool), st.integers(1, huge)),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_kernels_equal_the_fraction_routes(data):
    vectors = st.dictionaries(st.integers(1, 12), _wide_fractions(), max_size=8).map(SparseVector)
    x = data.draw(vectors.filter(lambda v: not v.is_zero), "x")
    y = data.draw(vectors, "y")
    a = data.draw(_wide_fractions(), "a")
    pythagorean = SparseVector({1: 3 * a, 5: -4 * a})  # 2-norm 5|a|, rational
    for v in (x, y, pythagorean):
        if v.is_zero:
            continue
        for p in (1, 2):
            assert _exact_outcome(lp_norm, v, p) == _exact_outcome(lp_norm_by_fractions, v, p)
        assert _exact_outcome(norm_sq, v, LpSpace(2)) == _exact_outcome(norm_sq_by_fractions, v)
    for p in (1, 2):
        assert _exact_outcome(g_explicit, x, y, p) == _exact_outcome(g_explicit_by_get, x, y, p)
    if y.is_zero:
        return
    ref = tau_l1_by_vectors(x, y)
    got = tau(x, y, L1)
    assert got == ref and [type(v) for v in (got.tau_plus, got.tau_minus)] == [Fraction] * 2
    expected = (ref.tau_plus + ref.tau_minus) / 2 * lp_norm_by_fractions(x, 1)
    assert _exact_outcome(g_from_norm, x, y, L1) == (expected, Fraction)


def test_exact_p3_raises_backend_error_on_every_route():
    x, y = sv([1, 2]), sv([2, 1])
    with pytest.raises(BackendError):
        g(x, y, LpSpace(3))
    with pytest.raises(BackendError):
        g_explicit(x, y, 3)
    with pytest.raises(BackendError):
        gram([x, y], LpSpace(3))
    with pytest.raises(BackendError):
        g_functional(x, LpSpace(3))


@pytest.mark.parametrize("p", (1, 2, 1.5))
def test_mixing_backends_raises_backend_error(p):
    exact, inexact = sv([1, 2]), sv([1.0, 2.0])
    for x, y in ((exact, inexact), (inexact, exact)):
        if x is exact and p == 1.5:
            continue  # exact p = 1.5 fails at the set-up, as the test above pins
        with pytest.raises(BackendError):
            g_functional(x, LpSpace(p))(y)
        with pytest.raises(BackendError):
            g(x, y, LpSpace(p))
    with pytest.raises(BackendError):
        gram([inexact, exact], LpSpace(p))


@pytest.mark.parametrize("space", [LpSpace(1), LpSpace(2), LpSpace(3.0), MAX_NORM], ids=["l1", "l2", "l3", "max"])
def test_a_zero_first_argument_gives_zero_in_the_backend_of_y(space):
    g_0 = g_functional(SparseVector(), space)
    for y, zero in ((sv([1.0, 2.0]), 0.0), (sv([1, 2]), Fraction(0)), (SparseVector(), Fraction(0))):
        got = g_0(y)
        assert got == zero and type(got) is type(zero), y


def test_gram_under_the_max_norm_is_unchanged():
    # pinned from the per-pair g route; g of the max norm is not additive in
    # its second argument, so each entry runs the difference quotients
    basis = [sv([1.0, 1.0, 1.0, 0.0]), sv([1.0, 0.0, 0.0, 0.0]), sv([0.0, 1.0, 0.0, 0.0]), sv([1.0, 1.0, 0.0, 1.0])]
    data = gram(basis, MAX_NORM)
    assert data.matrix == (
        (1.0, 0.5, 0.5, 0.5),
        (1.0, 1.0, 0.0, 1.0),
        (1.0, 0.0, 1.0, 1.0),
        (0.5, 0.5, 0.5, 1.0),
    )
    assert data.det == -0.25
    assert gram([sv([2.0, -1.0]), sv([0.5, 3.0])], MAX_NORM).matrix == ((4.0, 1.0), (-3.0, 9.0))


# -- results beyond the float range ----------------------------------------


def test_a_float_norm_that_overflows_raises_numerical_range_error():
    x = SparseVector({1: 1e150, 2: 1.0})
    with pytest.raises(NumericalRangeError):
        lp_norm(x, 3)  # |x1|^3 overflows
    with pytest.raises(NumericalRangeError):
        g_explicit(x, SparseVector({1: 1.0}), 3)
    with pytest.raises(NumericalRangeError):
        lp_norm(SparseVector({1: 1e200, 2: 1e200}), 2)  # the sum of squares is inf


def test_float_tau_whose_powers_overflow_raises_numerical_range_error():
    x = SparseVector({1: 1e150, 2: 1.0})
    with pytest.raises(NumericalRangeError):
        tau(x, SparseVector({1: 1.0}), LpSpace(3.0))


def test_g_of_a_float_x_whose_norm_power_underflows_is_taken_rescaled():
    t = SparseVector({1: 1e-300, 2: 1e-300})
    assert lp_norm(t, 3.0) == pytest.approx(2 ** (1 / 3) * 1e-300, rel=1e-15)  # taken rescaled
    y = SparseVector({1: 1.0, 2: 3.0})
    for p in (3.0, 1.5):  # |t|^p underflows to 0, and at p = 3 each weight |t_i|^2 does
        assert g_explicit(t, y, p) == pytest.approx(_rescaled_g(t, y, p), rel=1e-14)
        assert g_explicit(t, t, p) == 0.0  # |t|^2 itself underflows


def test_a_float_g_that_overflows_raises_numerical_range_error():
    big = SparseVector({1: 1e200})
    with pytest.raises(NumericalRangeError):
        g_explicit(big, big, 2)
    assert g_explicit(big, SparseVector({1: 1.0}), 2) == 1e200  # p = 2 needs no norm


def test_a_float_squared_norm_that_overflows_raises_numerical_range_error():
    big = SparseVector({1: 1e200})
    for p in (1, 1.5):
        assert lp_norm(big, p) < math.inf  # the norm itself is finite
        with pytest.raises(NumericalRangeError):
            norm_sq(big, LpSpace(p))
    with pytest.raises(NumericalRangeError):
        norm_sq(big, OracleSpace(lambda v: lp_norm(v, 1.5), "l1.5"))
    assert norm_sq(SparseVector({1: 1e150}), LpSpace(1.5)) == pytest.approx(1e300)
