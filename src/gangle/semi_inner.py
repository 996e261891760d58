"""The semi-inner product g and the one-sided norm derivatives behind it.

Two independent routes are provided:

* :func:`g_explicit` -- the closed form for lp spaces,
  ``|x|^(2-p) * sum(|xi|^(p-1) * sgn(xi) * yi)``;
* :func:`g_from_norm` -- the definition ``(|x|/2) * (tau+ + tau-)`` built
  from difference quotients of ``t -> |x + t*y|``.

For p = 1 the norm is piecewise linear in ``t``, so the quotient is evaluated
exactly at a step below the first sign flip (no limit needed, both backends).
For p > 1 the norm is smooth away from 0 and the derivative is estimated by
central differences with Richardson extrapolation (float only).  For norm
oracles, one-sided quotients are driven to agreement over shrinking steps.

``g(0, y)`` is taken to be 0 by convention, the limit of bi-homogeneity as
the first argument is scaled to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendError, EstimationFailureError, ZeroVectorError
from .vectors import (
    EXACT,
    FLOAT,
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

# Stopping rule for the norm-oracle quotient schedule: steps 2^-k for
# k = 10..40, stop when two successive quotients agree to 1e-9 * |y|.
_ORACLE_K_RANGE = range(10, 41)
_ORACLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class TauPair:
    """Right and left derivatives of t -> |x + t*y| at t = 0.

    ``step_used`` is 0 when the value was obtained exactly (piecewise-linear
    evaluation), otherwise the final finite-difference step.
    """

    tau_plus: Coeff
    tau_minus: Coeff
    step_used: Coeff = 0


def _tau_l1(x: SparseVector, y: SparseVector) -> TauPair:
    # Below t* = min |xi|/|yi| / 2 over shared support no coordinate of
    # x + t*y changes sign, so the quotient equals the one-sided derivative.
    ys = dict(y.items())
    shared = [(xi, ys[i]) for i, xi in x if i in ys]
    if shared:
        tstar = min(abs(xi) / abs(yi) for xi, yi in shared) / 2
    else:
        tstar = 1
    n0 = lp_norm(x, 1)
    plus = (lp_norm(x.add(y.scale(tstar)), 1) - n0) / tstar
    minus = (lp_norm(x.add(y.scale(-tstar)), 1) - n0) / (-tstar)
    return TauPair(plus, minus, 0)


def _tau_central(f, scale: float) -> tuple:
    """Derivative of f at 0 by central differences + Richardson extrapolation.

    Halves the step until successive extrapolants stabilize; keeps the value
    at the smallest successive gap so round-off growth past the optimum is
    harmless.  Returns (value, step)."""
    tol = 1e-13 * max(scale, 1e-300)
    prev_d = None
    prev_r = None
    best = None
    best_h = None
    best_gap = float("inf")
    rising = 0
    for k in range(4, 46):
        h = 2.0 ** -k
        d = (f(h) - f(-h)) / (2.0 * h)
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
        best, best_h = prev_r if prev_r is not None else prev_d, 2.0 ** -5
    return best, best_h


def _tau_oracle(x: SparseVector, y: SparseVector, space: OracleSpace) -> TauPair:
    n0 = norm(x, space)
    ny = float(norm(y, space))
    tol = _ORACLE_REL_TOL * max(ny, 1e-300)
    exact = join_backends(x.backend, y.backend) != FLOAT

    def one_sided(sign: int):
        prev = None
        q = None
        for k in _ORACLE_K_RANGE:
            t = (Fraction(sign, 2 ** k) if exact else sign * 2.0 ** -k)
            q = (norm(x.add(y.scale(t)), space) - n0) / t
            if prev is not None and abs(q - prev) < tol:
                return q, abs(t)
            prev = q
        raise EstimationFailureError(
            f"one-sided quotient for norm oracle {space.name!r} did not "
            f"stabilize to {tol:g}",
            last_two=(prev, q),
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
        return _tau_oracle(x, y, space)
    if space.p == 1:
        return _tau_l1(x, y)
    if x.backend == EXACT or y.backend == EXACT:
        raise BackendError(
            f"difference quotients for p={space.p} require float mode "
            "(the norm is not piecewise linear)"
        )
    p = float(space.p)
    # |x + t*y| over index-ordered pairs (x_i, y_i), summed in the order and
    # with the rounding of lp_norm(x.add(y.scale(t)), p), without the vectors.
    xs = dict(x.items())
    ys = dict(y.items())
    pairs = [(xs.get(i, 0.0), ys.get(i, 0.0)) for i in sorted(xs.keys() | ys.keys())]
    if p == 2:
        def f(t):
            return math.sqrt(sum((v := a + t * b) * v for a, b in pairs))
    else:
        def f(t):
            return sum(abs(a + t * b) ** p for a, b in pairs) ** (1.0 / p)
    value, step = _tau_central(f, float(norm(y, space)))
    return TauPair(value, value, step)


def g_from_norm(x: SparseVector, y: SparseVector, space: Space) -> Coeff:
    """g by its definition: half the norm of x times (tau+ + tau-)."""
    if x.is_zero:
        return _zero(y.backend)
    pair = tau(x, y, space)
    return (pair.tau_plus + pair.tau_minus) / 2 * norm(x, space)


def g_explicit(x: SparseVector, y: SparseVector, p) -> Coeff:
    """g by the lp closed form.  Exact in rational mode for p in {1, 2}."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    backend = join_backends(x.backend, y.backend)
    if x.is_zero:
        return _zero(backend)
    ys = dict(y.items())
    if backend == EXACT:
        if p == 1:
            return lp_norm(x, 1) * sum((sgn(v) * ys.get(i, 0) for i, v in x), Fraction(0))
        if p == 2:
            return sum((v * ys.get(i, 0) for i, v in x), Fraction(0))
        raise BackendError(f"exact closed form only for p in {{1, 2}}, not p={p}; use float mode")
    p = float(p)
    nx = lp_norm(x, p)
    s = sum(abs(v) ** (p - 1.0) * sgn(v) * ys.get(i, 0) for i, v in x)
    return nx ** (2.0 - p) * s


def g(x: SparseVector, y: SparseVector, space: Space) -> Coeff:
    """Semi-inner product under ``space``: closed form for lp spaces, the
    difference-quotient definition for norm oracles."""
    if isinstance(space, LpSpace):
        return g_explicit(x, y, space.p)
    return g_from_norm(x, y, space)
