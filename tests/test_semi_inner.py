import math
import random
from fractions import Fraction

import pytest

from gangle import (
    BackendError,
    EstimationFailureError,
    LpSpace,
    OracleSpace,
    SparseVector,
    TauPair,
    ZeroVectorError,
    g,
    g_explicit,
    g_from_norm,
    norm,
    norm_sq,
    tau,
)

from support import (
    g_explicit_by_get,
    rand_exact_vector,
    rand_float_vector,
    rand_vector,
    tau_float_by_vectors,
)

sv = SparseVector.from_dense
L1 = LpSpace(1)


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


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_float_tau_equals_the_vector_route_exactly(p):
    rng = random.Random(int(p * 100))
    for x, y in _kernel_pairs(rng, "float"):
        if y.is_zero:
            continue
        value, step = tau_float_by_vectors(x, y, p)
        assert tau(x, y, LpSpace(p)) == TauPair(value, value, step), (x, y)


@pytest.mark.parametrize("backend,ps", [("exact", (1, 2)), ("float", (1.0, 1.5, 2.0, 3.0))])
def test_g_explicit_equals_the_get_route_exactly(backend, ps):
    rng = random.Random(len(ps))
    for x, y in _kernel_pairs(rng, backend):
        for p in ps:
            for a, b in ((x, y), (y, x)):
                got, ref = g_explicit(a, b, p), g_explicit_by_get(a, b, p)
                assert got == ref and type(got) is type(ref), (a, b, p)
