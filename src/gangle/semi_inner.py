"""The semi-inner product g and the one-sided norm derivatives behind it.

Two independent routes are provided:

* :func:`g_explicit` -- the closed form for lp spaces,
  ``|x|^(2-p) * sum(|xi|^(p-1) * sgn(xi) * yi)``;
* :func:`g_from_norm` -- the definition ``(|x|/2) * (tau+ + tau-)`` built
  from difference quotients of ``t -> |x + t*y|``.

One rule, :func:`_closed_form`, decides x's share of the closed form: the
factor ``|x|^(2-p)``, one norm pass over x, and the weights
``|xi|^(p-1) * sgn(xi)``; at p = 2 these are x's entries and no norm is
taken, and exact p = 1 weighs the int numerators by their signs.  A single
value of :func:`g` (and of :func:`g_explicit`, which calls it) forms the
weights only on the shared support of x and y, as a sparse dot product runs
over the common nonzeros.  Every other first argument is prepared by one
routine, :func:`_row`, with the weights over all of x: it returns the map
``y -> g(x, y)``, with the bits of a single value, and its raw values on
given vectors.  :func:`g_functional` takes the map, :func:`_gram_rows` the
rows of each basis vector, and left g-orthonormalization the starred rows,
exact ones reduced to ints by :func:`_reduced`.  In float mode a norm, a
value of g or a power or quotient inside float tau beyond the range raises
:class:`~gangle.errors.NumericalRangeError`.

For p = 1 the norm is piecewise linear in ``t``, so the quotient is evaluated
exactly at a step below the first sign flip (no limit needed, both backends).
For p > 1 the norm is smooth away from 0 and the derivative is estimated by
central differences with Richardson extrapolation (float only), at steps
scaled by a power of two within a factor 2 of |x| / |y| (a largest entry
stands in for a norm that underflows to 0) and kept below the least kink
``min |xi|/|yi|`` of the terms ``|xi + t*yi|^p``.  Float tau sums
only the terms that change with ``t``: at p > 1 ``|x + t*y|^p`` is the sum
of ``|xi|^p`` off supp y, taken once, plus ``|xi + t*yi|^p`` on the shared
support (the terms ``|t*yi|^p`` off supp x are o(t) and left out), and each
central difference ``|x + h*y| - |x - h*y|`` is taken from the per-term
differences ``|xi + h*yi|^p - |xi - h*yi|^p``, each formed by ``log1p`` and
``expm1`` from ``2*h*yi``, so no larger term absorbs the change of a smaller
one; in l1 the quotient sums ``|xi + t*yi| - |xi|`` on supp y alone, so
|x|_1 cannot absorb the step.  For norm oracles, one-sided quotients over
shrinking steps, scaled by the same power of two (for exact vectors only
where it is below 1), stop when two successive
quotients agree (a piecewise-linear norm, whose quotient is constant below
its first kink) or when two successive Richardson steps ``2*q(t) - q(2t)``
agree (a smooth norm), which returns one Richardson step more.

``g(0, y)`` is taken to be 0 by convention, the limit of bi-homogeneity as
the first argument is scaled to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendError, EstimationFailureError, NumericalRangeError, ZeroVectorError
from .vectors import (
    EXACT,
    Coeff,
    LpSpace,
    OracleSpace,
    SparseVector,
    Space,
    join_backends,
    lp_norm,
    norm,
    sgn,
    _zero,
)

# Stopping rule for the norm-oracle quotient schedule: steps 2^(e_x - e_y - k)
# for k = 10..40, stop when two successive quotients agree to 1e-9 * |y|.
_ORACLE_K_RANGE = range(10, 41)
_ORACLE_REL_TOL = 1e-9
# Exponents e of the powers of two 2^e that are floats, subnormals included.
_FLOAT_EXPONENTS = range(sys.float_info.min_exp - sys.float_info.mant_dig, sys.float_info.max_exp)


@dataclass(frozen=True)
class TauPair:
    """Right and left derivatives of t -> |x + t*y| at t = 0.

    ``step_used`` is 0 when the value was obtained exactly (piecewise-linear
    evaluation), otherwise the final finite-difference step: for an lp space
    the scaled central-difference step, a power of two at most
    2^(e_x - e_y), where e_x and e_y are the binary exponents of |x| and
    |y| (see :func:`_exponent`), and below the least kink min |x_i|/|y_i|,
    and under a norm oracle the larger of the two one-sided steps,
    2^(e_x - e_y - k), or 2^(min(e_x - e_y, 0) - k) for exact vectors.
    """

    tau_plus: Coeff
    tau_minus: Coeff
    step_used: Coeff = 0


def _exponent(size, v: SparseVector) -> int:
    """The binary exponent e, 2^(e-1) <= size < 2^e, of ``size``, a norm of
    the nonzero vector v, exact for an exact norm of any magnitude.  Where
    the norm underflowed to 0 it is that of v's largest |entry|, which lies
    within a factor n^(1/p) below the lp norm of n entries."""
    size = size or max(abs(c) for _, c in v)
    if isinstance(size, float):
        return math.frexp(size)[1]
    e = size.numerator.bit_length() - size.denominator.bit_length()  # 2^(e-1) < size < 2^(e+1)
    return e + 1 if size >= Fraction(2) ** e else e


def _tau_l1_exact(x: SparseVector, y: SparseVector) -> tuple:
    """:func:`tau` at p = 1 on the int numerators a_i of x over D_x and c_i
    of y over D_y, as ints (plus, minus, den): tau+- = plus / den and
    minus / den.  t* = tn / td is half the least |x_i / y_i| (1 when the
    supports are disjoint), found by cross products.  At t = +-t*, with
    u = td * D_y and v = tn * D_x, (|x + t*y|_1 - |x|_1) * D_x * td * D_y
    sums |a*u +- c*v| - |a|*u over the common support and |c|*v off supp x,
    so the quotient has the denominator D_x * D_y * tn."""
    xs = dict(x._entries)
    common = [(a, c) for i, c in y._entries if (a := xs.get(i)) is not None]
    off = sum([abs(c) for i, c in y._entries if i not in xs])
    rn, rd = 1, 0  # the least |a| / |c|, 1 / 0 before the first
    for a, c in common:
        if abs(a) * rd < rn * abs(c):
            rn, rd = abs(a), abs(c)
    tn, td = (rn * y._den, 2 * rd * x._den) if rd else (1, 1)
    u, v = td * y._den, tn * x._den
    plus = sum([abs(a * u + c * v) - abs(a) * u for a, c in common]) + off * v
    minus = sum([abs(a) * u - abs(a * u - c * v) for a, c in common]) - off * v
    return plus, minus, x._den * y._den * tn


def _tau_central(delta, scale: float, unit: float) -> tuple:
    """Derivative of f at 0 by central differences + Richardson extrapolation,
    where ``delta(h)`` is f(h) - f(-h).

    The steps are h = unit * 2^-k, k = 4..45; ``unit`` is a power of two, so
    each h is one and h*y_i is exact.  Halves the step until successive
    extrapolants stabilize to 1e-13 * ``scale``; keeps the value at the
    smallest successive gap so round-off growth past the optimum is
    harmless, and stops after three rising gaps once k > 16, so ``unit``
    must be on the scale over which f is smooth, and ``delta`` accurate to
    round-off of f(h) - f(-h) itself, not of f.  Returns (value, step).
    Raises EstimationFailureError when no gap between successive
    extrapolants is finite (the norm overflowed)."""
    tol = 1e-13 * max(scale, 1e-300)
    prev_d = None
    prev_r = None
    best = None
    best_h = None
    best_gap = float("inf")
    rising = 0
    for k in range(4, 46):
        h = math.ldexp(unit, -k)
        d = delta(h) / (2.0 * h)
        if prev_d is not None:
            r = (4.0 * d - prev_d) / 3.0
            if prev_r is not None:
                gap = abs(r - prev_r)
                if gap < best_gap:
                    best_gap, best, best_h, rising = gap, r, h, 0
                else:
                    rising += 1
                if gap < tol or (rising >= 3 and k > 16):
                    break
            prev_r = r
        prev_d = d
    if best is None:
        raise EstimationFailureError(
            "central difference quotients gave no finite estimate",
            last_two=(prev_d, prev_r),
        )
    return best, best_h


def _tau_oracle(x: SparseVector, y: SparseVector, space: OracleSpace, n0: Coeff) -> TauPair:
    """:func:`tau` under a norm oracle, given n0 = |x|, from the one-sided
    quotients q(t) = (|x + t*y| - n0) / t at t = +-2^(e_x - e_y - k), k = 10..40,
    where e_x and e_y are the binary exponents of |x| and |y|
    (:func:`_exponent`), so that t*|y| / |x| runs from about 2^-10 to 2^-40
    whatever the magnitudes, and a float step beyond the float range raises
    NumericalRangeError.  Exact vectors take the steps as Fractions,
    +-2^(min(e_x - e_y, 0) - k): exact x + t*y absorbs no step, so the
    steps are not raised where |x| >> |y|, which would carry them over the
    kinks of x's small entries, and they shrink where |x| << |y|.  A side
    stops at the first k where q(t) agrees with q(2t) to 1e-9 * |y| and
    returns q(t): below the first kink of a piecewise-linear norm q is
    constant, so this keeps its value and its two evaluations.  Else it stops where two
    successive Richardson steps r(t) = 2*q(t) - q(2t) agree to the same
    tolerance.  For a smooth norm q(t) = tau + c1*t + c2*t^2 + ..., so r(t)
    = tau + O(t^2), and the side returns the next Richardson step,
    (4*r(t) - r(2t)) / 3 = tau + O(t^3), at no further evaluation.  When
    neither rule stops a side, EstimationFailureError carries its last two
    quotients."""
    ny = float(norm(y, space))
    tol = _ORACLE_REL_TOL * max(ny, 1e-300)
    shift = _exponent(n0, x) - _exponent(ny, y)
    exact = join_backends(x.backend, y.backend) == EXACT
    if exact:  # no workload drives an exact oracle; the CLI rejects one
        shift = min(shift, 0)
        def at(t):
            return x.add(y.scale(t))
    else:
        # Float x + t*y in one pass per step: the index-sorted entries of x
        # and of y off supp x are merged once, keeping x's own entry tuples,
        # and a step replaces only the entries on supp y, at positions ks, by
        # a + t*b (t*b off supp x), the values and the overflow check of
        # x.add(y.scale(t)).  Parallel lists, and no dict kept over the
        # steps, hold the peak memory of a step to that of the vector route.
        xs, ys = dict(x._entries), dict(y._entries)
        base = sorted(x._entries + tuple(e for e in y._entries if e[0] not in xs))
        ks = [k for k, (i, _) in enumerate(base) if i in ys]
        xa = [xs.get(i) for i, _ in y._entries]
        del xs, ys

        def at(t):
            entries = base.copy()
            for k, (i, b), a in zip(ks, y._entries, xa):
                entries[k] = (i, t * b if a is None else a + t * b)
            return SparseVector._checked(entries)

    def one_sided(sign: int):
        prev = prev_r = before = None
        for k in _ORACLE_K_RANGE:
            if exact:
                t = sign * Fraction(2) ** (shift - k)
            elif shift - k in _FLOAT_EXPONENTS:
                t = math.ldexp(sign, shift - k)
            else:
                raise NumericalRangeError(f"the oracle step 2^{shift - k} is beyond the float range")
            q = (norm(at(t), space) - n0) / t
            if prev is not None:
                if abs(q - prev) < tol:
                    return q, abs(t)
                r = 2 * q - prev
                if prev_r is not None and abs(r - prev_r) < tol:
                    return (4 * r - prev_r) / 3, abs(t)
                prev_r = r
            prev, before = q, prev
        raise EstimationFailureError(
            f"one-sided quotient for norm oracle {space.name!r} did not "
            f"stabilize to {tol:g}",
            last_two=(before, prev),
        )

    plus, step_p = one_sided(+1)
    minus, step_m = one_sided(-1)
    return TauPair(plus, minus, max(step_p, step_m))


def tau(x: SparseVector, y: SparseVector, space: Space) -> TauPair:
    """One-sided derivatives of t -> |x + t*y| at 0.  Requires x != 0."""
    if x.is_zero:
        raise ZeroVectorError("tau is undefined for the zero base vector")
    if y.is_zero:
        zero = _zero(x.backend)
        return TauPair(zero, zero, 0)
    join_backends(x.backend, y.backend)
    if isinstance(space, OracleSpace):
        return _tau_oracle(x, y, space, norm(x, space))
    if x.backend == EXACT:
        if space.p == 1:
            plus, minus, den = _tau_l1_exact(x, y)
            return TauPair(Fraction(plus, den), Fraction(minus, den), 0)
        raise BackendError(
            f"difference quotients for p={space.p} require float mode "
            "(the norm is not piecewise linear)"
        )
    p = float(space.p)
    # Only the terms on supp y change with t: the pairs (a, b) = (x_i, y_i)
    # there, in index order, and x's other entries, left in xs.
    xs = dict(x._entries)
    pairs = [(xs.pop(i, 0.0), b) for i, b in y._entries]
    # No a + t*b changes sign for |t| < min |a|/|b| over the pairs with a != 0.
    ratios = [abs(a) / abs(b) for a, b in pairs if a]
    if p == 1:
        # Below t* = min |a|/|b| / 2 the quotient is the one-sided
        # derivative.  Each |a + t*b| - |a| is then exact for a != 0
        # (Sterbenz), and no |x|_1 enters the sum to absorb the step.
        tstar = min(ratios) / 2 if ratios else 1.0
        if tstar > 0:  # else the least ratio underflowed
            plus, minus = (sum([abs(a + t * b) - abs(a) for a, b in pairs]) / t for t in (tstar, -tstar))
            if math.isfinite(plus) and math.isfinite(minus):
                return TauPair(plus, minus, 0)
        raise NumericalRangeError(f"l1 difference quotients at t* = {tstar!r} are beyond the float range")
    # At p > 1 a pair with a = 0 adds |t*b|^p to |x + t*y|^p: it leaves |x|
    # and the derivative at 0 unchanged, but adds to the central differences
    # an error of order h^p, which at p < 2 the Richardson steps, made for a
    # series in h^2, do not remove.  These pairs are left out.
    pairs = [(a, b) for a, b in pairs if a]
    try:
        # f(t)^p = off + S(t), with off = sum |x_i|^p off supp y summed once
        # and S(t) = sum |a + t*b|^p.  For |h| below the least kink,
        # min |a|/|b|, a + h*b has the sign of a - h*b, so that
        # |a + h*b|^p - |a - h*b|^p = |a - h*b|^p * expm1(p * log1p(2*h*b / (a - h*b)))
        # holds to a few roundings of itself, where subtracting the two
        # powers loses the digits of |a|^p that h*b does not reach; and
        # f(h) - f(-h) = f(-h) * expm1(log1p((S(h) - S(-h)) / f(-h)^p) / p),
        # where neither off nor the larger terms absorb the change.
        # (At p = 2 the squares are products, which overflow to inf, not
        # OverflowError, and the estimate fails for want of a finite value.)
        def powers(values):
            return [v * v for v in values] if p == 2 else [abs(v) ** p for v in values]

        off = math.fsum(powers(xs.values()))

        def delta(h):
            below = [a - h * b for a, b in pairs]
            low = powers(below)
            rise = sum([w * math.expm1(p * math.log1p(2.0 * h * b / v)) for w, v, (_, b) in zip(low, below, pairs)])
            low = off + sum(low)
            return low ** (1.0 / p) * math.expm1(math.log1p(rise / low) / p)

        # The step unit is 2^(e_x - e_y), where e_x and e_y are the binary
        # exponents of |x| = f(0) and |y| (of a largest entry where a norm
        # underflows), capped at the power of two at or below the least kink.
        ny = float(norm(y, space))
        nx = (off + sum(powers([a for a, _ in pairs]))) ** (1.0 / p)
        unit = math.ldexp(1.0, _exponent(nx, x) - _exponent(ny, y))
        radius = min(ratios, default=math.inf)
        if radius < unit:
            unit = math.ldexp(1.0, math.frexp(radius)[1] - 1) if radius else 0.0
        value, step = _tau_central(delta, ny, unit)
    except (OverflowError, ZeroDivisionError, ValueError):  # a power, a ratio or a step beyond the float range
        raise NumericalRangeError(f"|x + t*y| at p={p:g} or its step is beyond the float range") from None
    return TauPair(value, value, step)


def g_from_norm(x: SparseVector, y: SparseVector, space: Space) -> Coeff:
    """g by its definition: half the norm of x times (tau+ + tau-).  Under a
    norm oracle the one evaluation of |x| that the quotients subtract also
    gives the norm in front, so a noisy oracle is read once at x."""
    if x.is_zero:
        return _zero(y.backend)
    if isinstance(space, LpSpace) and space.p == 1 and join_backends(x.backend, y.backend) == EXACT:
        # |x|_1 / 2 * (tau+ + tau-) on the ints of the exact l1 quotients
        plus, minus, den = _tau_l1_exact(x, y)
        return Fraction((plus + minus) * sum([abs(n) for _, n in x._entries]), 2 * den * x._den)
    if isinstance(space, OracleSpace) and not y.is_zero:
        join_backends(x.backend, y.backend)
        nx = norm(x, space)
        return _g_from_pair(_tau_oracle(x, y, space, nx), nx)
    return _g_from_pair(tau(x, y, space), norm(x, space))


def _g_from_pair(pair: TauPair, nx: Coeff) -> Coeff:
    """The definition |x| * (tau+ + tau-) / 2 from the pair tau(x, y) and
    nx = |x|; a float value beyond the float range raises
    NumericalRangeError."""
    return _finite((pair.tau_plus + pair.tau_minus) / 2 * nx)


def _finite(value: Coeff, den: int = 1) -> Coeff:
    """A value of g, checked: a float one beyond the float range raises
    NumericalRangeError; an exact numerator is kept (the Gram rows).  ``den``
    is not read: it gives this the signature of ``Fraction``, the exact
    finish, as the float finish of the closed form (:func:`_closed_form`)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalRangeError("g(x, y) overflows the float range")
    return value


def _closed_form(x: SparseVector, p, entries) -> tuple:
    """x's share of the closed form g(x, y) = finish(factor * sum(w_i * y_i),
    D_x * D_y) over supp x ∩ supp y, for a nonzero x in an lp space, with
    the weights w_i formed on ``entries``, (index, stored value) entries of
    x: (factor, {i: w_i}, finish).

    * p = 2: the weights are the stored values, the factor 1, and no norm
      is taken;
    * exact p = 1: the weights are the signs of the int numerators and the
      factor is the int D_x * |x|_1, the sum of their absolute values, so
      that the sum on y's int numerators is D_x * D_y * g(x, y);
    * float p != 2: w_i = |xi|^(p-1) * sgn(xi), +-1.0 at p = 1, and the
      factor |x|^(2-p) takes one norm pass.

    The finish is ``Fraction`` in exact mode and the float range check
    :func:`_finite` else.  Where the float |x|^p underflows to 0 or
    |x|^(2-p) overflows, the factor and the weights are those of x / 2^e,
    2^(e-1) <= |x| < 2^e, and the finish multiplies by 2^e, as g is
    homogeneous in x.  Raises BackendError for an exact x and p not in
    {1, 2}, and NumericalRangeError for such an x at p >= 1026."""
    exact = x.backend == EXACT
    finish = Fraction if exact else _finite
    if p == 2:
        return (1 if exact else 1.0), dict(entries), finish
    if exact:
        if p != 1:
            raise BackendError(f"exact closed form only for p in {{1, 2}}, not p={p}; use float mode")
        return sum([abs(n) for _, n in x._entries]), {i: 1 if n > 0 else -1 for i, n in entries}, finish
    p = float(p)
    try:  # where |x|^p underflows to 0, the weights can too, and g would read 0
        factor = nx ** (2.0 - p) if min(nx := lp_norm(x, p), 1.0) ** p else 0.0
    except OverflowError:  # a tiny |x| to a power below 0
        factor = 0.0
    if factor == 0.0 and p < 1026.0:  # g(x, y) = 2^e * g(x / 2^e, y); m^(2-p) <= 2^(p-2) is a float
        m, e = math.frexp(nx)  # |x| / 2^e = m in [1/2, 1)
        entries = [(i, math.ldexp(v, -e)) for i, v in entries]
        factor, finish = m ** (2.0 - p), lambda value, den: _finite(math.ldexp(value, e))
    if factor == 0.0:
        raise NumericalRangeError(f"|x|^(2-p) at p={p:g} is beyond the float range")
    q = p - 1.0
    return factor, {i: abs(v) ** q * sgn(v) for i, v in entries}, finish


def g_functional(x: SparseVector, space: Space):
    """The map y -> g(x, y) under ``space``, x prepared once by :func:`_row`.
    A call sums y's entries on x's support in index order, rounding as one
    :func:`g` call does.  It pays off where one x meets several y, as in
    the explicit sum.

    Raises BackendError for an exact x and p not in {1, 2}; a call raises
    it for a y of the other backend, and NumericalRangeError for an
    infinite g(x, y)."""
    if x.is_zero and isinstance(space, LpSpace):
        return lambda y: _zero(y.backend)
    return _row(x, (), space)[0]


def _map(x: SparseVector, factor, weights, finish):
    """The map y -> finish(factor * sum(w_i * y_i), D_x * D_y) of x's share
    of the closed form; a y of the other backend raises BackendError."""
    backend, den = x.backend, x._den

    def g_x(y: SparseVector) -> Coeff:
        join_backends(backend, y._backend)
        value = factor * sum([w * c for i, c in y._entries if (w := weights.get(i)) is not None])
        return finish(value, den * y._den)

    return g_x


def _row(x: SparseVector, others, space) -> tuple:
    """(map y -> g(x, y), its raw values on ``others``) from one preparation
    of x, nonzero in an lp space: one :func:`_closed_form`, or
    :func:`g_from_norm` under a norm oracle.  The raw values are floats,
    oracle values, or in exact mode the ints D_x * D_k * g(x, x_k), D_k the
    denominator of the k-th of ``others``, with no Fraction."""
    if isinstance(space, OracleSpace):
        def g_x(y):
            return g_from_norm(x, y, space)
        return g_x, list(map(g_x, others))
    factor, weights, finish = _closed_form(x, space.p, x._entries)
    g_x = _map(x, factor, weights, finish)
    raw = g_x if x.backend != EXACT else _map(x, factor, weights, _finite)
    return g_x, list(map(raw, others))


def _gram_rows(basis, space) -> tuple:
    """(maps, rows, scales) of the Gram matrix [g(x_i, x_k)] of nonzero
    vectors, each prepared once by :func:`_row`: the maps y -> g(x_i, y) and
    their values, floats or oracle values with no scales, or exact ints,
    row i by :func:`_reduced` over scales[i].  At p = 2, where g is
    symmetric, the entries k < i are mirrored: the same products."""
    half = isinstance(space, LpSpace) and space.p == 2
    maps, rows = zip(*[_row(x, basis[i if half else 0 :], space) for i, x in enumerate(basis)])
    if half:
        rows = [[rows[k][i - k] for k in range(i)] + row for i, row in enumerate(rows)]
    if basis[0].backend != EXACT or not isinstance(space, LpSpace):  # floats or oracle values
        return maps, rows, None
    reduced = [_reduced(row, x) for row, x in zip(rows, basis)]
    return maps, [row for row, _ in reduced], [scale for _, scale in reduced]


def _reduced(row, x: SparseVector) -> tuple:
    """(R, (S, D)) of the ints V_k = D * D_k * g(x, x_k), D the denominator
    of x and D_k that of x_k: R_k = V_k / c, c = gcd(D, V_1, ...) and
    S = D / c, so g(x, x_k) = R_k / (S * D_k)."""
    c = math.gcd(x._den, *row)
    return (row if c == 1 else [v // c for v in row]), (x._den // c, x._den)


def g_explicit(x: SparseVector, y: SparseVector, p) -> Coeff:
    """g by the lp closed form.  Exact in rational mode for p in {1, 2}."""
    return g(x, y, LpSpace(p))


def g(x: SparseVector, y: SparseVector, space: Space) -> Coeff:
    """Semi-inner product: the lp closed form, or the norm-oracle definition
    (:func:`g_from_norm`).

    One value weighs only the shared support: x's share of the closed form
    (:func:`_closed_form`, one norm pass over x at p != 2) forms the
    weights on x's entries where y is nonzero too, and their products with
    y's entries are summed in index order, the products and the order of a
    :func:`g_functional` map, and so its bits."""
    if isinstance(space, OracleSpace) or x.is_zero:
        return g_functional(x, space)(y)
    ys = dict(y._entries)
    factor, weights, finish = _closed_form(x, space.p, [e for e in x._entries if e[0] in ys])
    join_backends(x._backend, y._backend)
    return finish(factor * sum([w * ys[i] for i, w in weights.items()]), x._den * y._den)
