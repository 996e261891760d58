"""Finitely supported real sequences and the norms they live under.

Coordinates are indexed from 1 upward.  Two scalar backends exist:

* exact  -- coefficients are rationals, given as ``int`` or
  ``fractions.Fraction`` and read back as ``Fraction``; arithmetic is exact
  and unbounded.  A vector stores int numerators over one int denominator,
  not one Fraction per coordinate, and the exact kernels (norms, g, l1 tau,
  vector arithmetic, projection) run on those ints.
* float  -- coefficients are ``float``, stored over the denominator 1.

Arithmetic builds vectors by ``_exact`` (int numerators) or ``_checked``
(floats, no inf or NaN); ``add``, ``sub`` and ``project``'s y_S are each
one ``_combination`` of (coefficient, vector) terms.

A vector is homogeneous in one backend.  Combining an exact vector with a
float vector (or a float scalar with an exact vector) raises
:class:`~gangle.errors.BackendError` instead of silently coercing; plain
``int`` scalars are neutral and adapt to either side.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .errors import BackendError, NumericalRangeError

Coeff = Union[int, float, Fraction]

EXACT = "exact"
FLOAT = "float"


def _zero(backend):
    """The zero scalar of a backend; the zero vector's backend (None) is exact."""
    return 0.0 if backend == FLOAT else Fraction(0)


def _backend_of(value) -> str:
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, (int, Fraction)):
        return EXACT
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def join_backends(a, b):
    """Combine two backend tags (either may be None for 'no preference')."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise BackendError(
        "cannot mix exact-rational and float values in one computation; "
        "convert one side (see SparseVector.to_float)"
    )


def sgn(t) -> int:
    """Sign of a scalar: -1, 0 or +1."""
    if t > 0:
        return 1
    if t < 0:
        return -1
    return 0


class SparseVector:
    """Immutable finitely supported sequence, stored as index-sorted pairs.

    Zero coefficients are dropped on construction and all stored values
    share one backend.  A float vector stores (index, float) pairs, all
    finite.  An exact vector stores (index, int numerator) pairs over one
    positive int denominator D in lowest terms, gcd(D, n_1, ..., n_k) = 1,
    so equal vectors store equal ints; its ``Fraction`` coefficients are
    built only when asked for (``items``, ``get``, iteration, ``to_dense``)
    and are not kept.  The exact kernels read the ints directly.
    """

    __slots__ = ("_entries", "_den", "_backend")

    def __init__(self, entries: Union[Mapping[int, Coeff], Iterable[Tuple[int, Coeff]]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        raw = {}
        saw_float = False
        saw_exact = False
        for idx, val in items:
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
                raise ValueError(f"coordinate index must be an integer >= 1, got {idx!r}")
            if idx in raw:
                raise ValueError(f"duplicate coordinate index {idx}")
            if isinstance(val, float):
                if not math.isfinite(val):
                    raise ValueError(f"coefficient at index {idx} must be finite, got {val!r}")
                saw_float = True
            elif isinstance(val, Fraction):
                saw_exact = True
            elif isinstance(val, int) and not isinstance(val, bool):
                pass  # neutral, promoted below
            else:
                raise TypeError(f"unsupported coefficient type {type(val).__name__}")
            raw[idx] = val
        if saw_float and saw_exact:
            raise BackendError("vector mixes float and Fraction coefficients")
        # sorted first, so that the stored pairs are allocated in index order
        den, entries = 1, sorted(raw.items())
        if saw_float:
            try:
                entries = [(i, float(v)) for i, v in entries]
            except OverflowError:  # an int coefficient beyond the float range
                raise NumericalRangeError("an int coefficient overflows the float range") from None
        else:  # numerators over the lcm of the denominators, in lowest terms already
            den = math.lcm(*[v.denominator for _, v in entries])
            entries = [(i, v.numerator * (den // v.denominator)) for i, v in entries]
        self._entries = tuple([e for e in entries if e[1]])
        self._den = den
        self._backend = (FLOAT if saw_float else EXACT) if self._entries else None

    @classmethod
    def _exact(cls, entries, den: int) -> "SparseVector":
        """Build an exact vector from index-sorted (index, int numerator)
        pairs over the int ``den`` > 0: zeros are dropped, and the numerators
        and ``den`` are divided by their gcd.  The exact arithmetic builds
        its results here."""
        entries = [e for e in entries if e[1]]
        if den != 1:
            common = math.gcd(den, *map(operator.itemgetter(1), entries))
            if common != 1:
                den //= common
                entries = [(i, n // common) for i, n in entries]
        vec = cls.__new__(cls)
        vec._entries = tuple(entries)
        vec._den = den
        vec._backend = EXACT if entries else None
        return vec

    @classmethod
    def _checked(cls, entries) -> "SparseVector":
        """Build a float vector from index-sorted (index, float) pairs, the
        result of float arithmetic: zeros (also values that underflowed to
        0.0) are dropped, and an infinite or NaN value raises
        :class:`~gangle.errors.NumericalRangeError`.  Such a value makes the
        sum of all values infinite or NaN, so the values are looked into one
        by one only when their sum is not finite (finite values can overflow
        the sum).  Float arithmetic builds its results here."""
        if (
            not math.isfinite(sum(map(operator.itemgetter(1), entries)))
            and not all(math.isfinite(v) for _, v in entries)
        ):
            raise NumericalRangeError("a coefficient of this vector overflows the float range or is NaN")
        vec = cls.__new__(cls)
        vec._entries = tuple([e for e in entries if e[1]])
        vec._den = 1
        vec._backend = FLOAT if vec._entries else None
        return vec

    @classmethod
    def _combination(cls, terms) -> "SparseVector":
        """sum(c_k * x_k) over (c_k, x_k) terms, c_k != 0, in one pass: each
        coordinate adds its products w_k * x_k(i) in term order.  Float terms
        weigh by c_k, with the bits of successive adds (1 * v is v, and
        a + (-1) * b is a - b).  Exact terms, c_k = a_k / b_k on x_k's int
        numerators n_k(i) over D_k, weigh by the ints W_k = a_k * M / (b_k * D_k),
        M the lcm of the b_k * D_k: y(i) = sum_k W_k * n_k(i) / M, no Fraction.
        Exact and float vectors together raise BackendError."""
        backend = functools.reduce(join_backends, [x._backend for _, x in terms], None)
        if backend == FLOAT:
            terms = [(c, x._entries) for c, x in terms]
        else:
            den = math.lcm(*[c.denominator * x._den for c, x in terms])
            terms = [(c.numerator * den // (c.denominator * x._den), x._entries) for c, x in terms]
        acc = {}
        if terms:
            w, entries = terms[0]
            acc = dict(entries) if w == 1 else {i: w * v for i, v in entries}
        for w, entries in terms[1:]:
            get = acc.get
            for i, v in entries:
                a = get(i)
                acc[i] = w * v if a is None else a + w * v
        entries = sorted(acc.items())
        return cls._checked(entries) if backend == FLOAT else cls._exact(entries, den)

    @classmethod
    def from_dense(cls, values: Sequence[Coeff]) -> "SparseVector":
        """Build from a dense array; slot ``i`` (0-based) holds coordinate ``i+1``."""
        return cls((i + 1, v) for i, v in enumerate(values))

    # -- basic queries ------------------------------------------------------

    @property
    def backend(self):
        """'exact', 'float', or None for the zero vector."""
        return self._backend

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple([i for i, _ in self._entries])  # exact-size, as in gram.gram

    @property
    def max_index(self) -> int:
        return self._entries[-1][0] if self._entries else 0

    def items(self) -> Tuple[Tuple[int, Coeff], ...]:
        """The (index, value) pairs in index order; exact values are
        Fractions built by this call."""
        if self._backend != EXACT:
            return self._entries
        den = self._den
        return tuple([(i, Fraction(n, den)) for i, n in self._entries])

    def get(self, idx: int) -> Coeff:
        """Coefficient at ``idx`` (0 when absent), found by binary search over
        the sorted indices, O(log nnz)."""
        entries = self._entries
        k = bisect.bisect_left(entries, (idx,))  # (idx,) sorts before (idx, v)
        if k == len(entries) or entries[k][0] != idx:
            return 0
        value = entries[k][1]
        return Fraction(value, self._den) if self._backend == EXACT else value

    def to_dense(self, length: int = 0) -> list:
        n = max(length, self.max_index)
        out = [0] * n
        for i, v in self.items():
            out[i - 1] = v
        return out

    def to_float(self) -> "SparseVector":
        """Copy of this vector in the float backend; a coefficient beyond the
        float range raises :class:`~gangle.errors.NumericalRangeError`.  An
        int quotient n / D is correctly rounded, as ``float(Fraction(n, D))``
        is, and a float divided by the denominator 1 keeps its bits."""
        den = self._den
        try:
            return SparseVector._checked([(i, v / den) for i, v in self._entries])
        except OverflowError:  # n / D beyond the float range
            raise NumericalRangeError("a coefficient of this vector is beyond the float range") from None

    # -- arithmetic ---------------------------------------------------------

    def scale(self, a: Coeff) -> "SparseVector":
        """``a`` times this vector; a float entry beyond the float range
        raises :class:`~gangle.errors.NumericalRangeError`."""
        if self.is_zero or a == 0:
            return ZERO
        backend = join_backends(self._backend, None if isinstance(a, int) else _backend_of(a))
        if backend == EXACT:
            n = a.numerator
            return SparseVector._exact([(i, n * v) for i, v in self._entries], self._den * a.denominator)
        try:
            a = float(a)  # a float subclass (a numpy scalar) must not leak into the entries
        except OverflowError:  # an int scalar beyond the float range
            raise NumericalRangeError("the scalar overflows the float range") from None
        return SparseVector._checked([(i, a * v) for i, v in self._entries])

    def add(self, other: "SparseVector") -> "SparseVector":
        """Sum of two vectors; a float entry beyond the float range raises
        :class:`~gangle.errors.NumericalRangeError`."""
        return self._combination([(1, self), (1, other)])

    def sub(self, other: "SparseVector") -> "SparseVector":
        """Difference of two vectors; a float entry beyond the float range
        raises :class:`~gangle.errors.NumericalRangeError`."""
        return self._combination([(1, self), (-1, other)])

    __add__ = add
    __sub__ = sub

    def __neg__(self) -> "SparseVector":
        return self.scale(-1)

    # -- protocol glue ------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, Coeff]]:
        return iter(self.items())

    def __eq__(self, other) -> bool:
        """Equal values at equal indices, across backends too (1.0 == 1)."""
        if not isinstance(other, SparseVector):
            return NotImplemented
        if self._backend == other._backend:
            return self._den == other._den and self._entries == other._entries
        return self.items() == other.items()

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v!r}" for i, v in self.items())
        return f"SparseVector({{{body}}})"


ZERO = SparseVector()


# -- ambient spaces ---------------------------------------------------------


@dataclass(frozen=True)
class LpSpace:
    """The sequence space with norm (sum |xi|^p)^(1/p), p a finite number >= 1."""

    p: Coeff

    def __post_init__(self):
        if isinstance(self.p, bool) or not 1 <= self.p < math.inf:
            raise ValueError(f"p must be a finite number >= 1, got {self.p!r}")


@dataclass(frozen=True)
class OracleSpace:
    """A black-box norm.  ``func`` maps a SparseVector to a nonnegative scalar.

    The norm axioms are not assumed; run :func:`check_norm_axioms` on the
    supports you care about before trusting results.
    """

    func: Callable[[SparseVector], Coeff]
    name: str = "oracle"


Space = Union[LpSpace, OracleSpace]


def exact_sqrt(value: Fraction):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _ldexp(value: float, e: int) -> float:
    """value * 2^e, or inf of value's sign where math.ldexp overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


def lp_norm(x: SparseVector, p) -> Coeff:
    """The p-norm of ``x``; a float norm beyond the float range raises
    :class:`~gangle.errors.NumericalRangeError`.  A float sum of |v|^p that
    overflows, or is subnormal, is taken again on x / 2^e."""
    if x.is_zero:
        return _zero(x.backend)
    if x.backend == EXACT:  # sums of the int numerators over the denominator D
        if p == 1:
            return Fraction(sum([abs(n) for _, n in x._entries]), x._den)
        if p == 2:
            s = sum([n * n for _, n in x._entries])
            root = math.isqrt(s)  # |x|_2 = sqrt(s) / D is rational iff s is a square
            if root * root != s:
                raise BackendError(
                    "the 2-norm of this vector is irrational; use float mode "
                    "or norm_sq for the exact squared norm"
                )
            return Fraction(root, x._den)
        raise BackendError(f"exact norms are only available for p in {{1, 2}}, not p={p}; use float mode")
    p = float(p)
    try:  # at p = 1 each |v| ** 1.0 and the sum ** 1.0 are exact
        s = sum([v * v for _, v in x._entries]) if p == 2 else sum([abs(v) ** p for _, v in x._entries])
    except OverflowError:  # some |v|^p is beyond the float range
        s = math.inf
    if s == math.inf or p != 1 and s < sys.float_info.min:  # s is inf, or subnormal and lost digits
        e = math.frexp(max([abs(v) for _, v in x._entries]))[1]  # max |v| / 2^e in [1/2, 1)
        value = _ldexp(sum([abs(math.ldexp(v, -e)) ** p for _, v in x._entries]) ** (1.0 / p), e)
    else:
        value = math.sqrt(s) if p == 2 else s ** (1.0 / p)
    if value == math.inf:
        raise NumericalRangeError(f"the {p:g}-norm of this vector overflows the float range")
    return value


def norm(x: SparseVector, space: Space) -> Coeff:
    """Norm of ``x`` under ``space``.  Nonnegative; zero iff ``x`` is zero."""
    if isinstance(space, LpSpace):
        return lp_norm(x, space.p)
    value = space.func(x)
    if not value >= 0:  # also NaN
        raise ValueError(f"norm oracle {space.name!r} returned a negative value or NaN")
    if value == math.inf:
        raise NumericalRangeError(f"norm oracle {space.name!r} returned inf")
    return value


def norm_sq(x: SparseVector, space: Space) -> Coeff:
    """Squared norm.  Exact for p in {1, 2} even when the norm is irrational.
    A float square beyond the float range raises
    :class:`~gangle.errors.NumericalRangeError`, also when the norm itself
    is finite."""
    if not isinstance(space, LpSpace):
        value = norm(x, space)
        value = value * value
    elif space.p == 2 and x.backend == EXACT:
        return Fraction(sum([n * n for _, n in x._entries]), x._den * x._den)
    else:
        try:
            value = lp_norm(x, space.p) ** 2
        except OverflowError:  # a float norm above about 1.3e154
            value = math.inf
    if value == math.inf:
        raise NumericalRangeError("the squared norm of this vector overflows the float range")
    return value


def check_norm_axioms(space: Space, rng, trials: int = 200, max_index: int = 6,
                      tol: float = 1e-9) -> None:
    """Probabilistic check that ``space`` behaves like a norm on random
    finitely supported float vectors.  Raises ValueError on a violation."""

    def rand_vec():
        n = rng.randint(1, max_index)
        return SparseVector(
            (i, rng.uniform(-5.0, 5.0)) for i in rng.sample(range(1, max_index + 1), n)
        )

    if norm(ZERO, space) != 0:
        raise ValueError("norm of the zero vector is not 0")
    for _ in range(trials):
        x = rand_vec()
        y = rand_vec()
        a = rng.uniform(-4.0, 4.0)
        nx = float(norm(x, space))
        ny = float(norm(y, space))
        scale_ref = max(nx, ny, 1.0)
        if nx < 0 or (nx == 0 and not x.is_zero):
            raise ValueError(f"positivity violated at {x!r}")
        if abs(float(norm(x.scale(a), space)) - abs(a) * nx) > tol * scale_ref * (abs(a) + 1):
            raise ValueError(f"absolute homogeneity violated at {x!r}, a={a}")
        if float(norm(x.add(y), space)) > nx + ny + tol * scale_ref:
            raise ValueError(f"triangle inequality violated at {x!r}, {y!r}")
