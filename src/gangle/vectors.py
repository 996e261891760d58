"""Finitely supported real sequences and the norms they live under.

Coordinates are indexed from 1 upward.  Two scalar backends exist:

* exact  -- coefficients are ``fractions.Fraction`` (``int`` inputs are
  promoted); arithmetic is exact and unbounded.
* float  -- coefficients are ``float``.

A vector is homogeneous in one backend.  Combining an exact vector with a
float vector (or a float scalar with an exact vector) raises
:class:`~gangle.errors.BackendError` instead of silently coercing; plain
``int`` scalars are neutral and adapt to either side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .errors import BackendError

Coeff = Union[int, float, Fraction]

EXACT = "exact"
FLOAT = "float"


def _zero(backend):
    """The zero scalar of a backend; the zero vector's backend (None) is exact."""
    return 0.0 if backend == FLOAT else Fraction(0)


def _one(backend):
    """The unit scalar of a backend; the zero vector's backend (None) is exact."""
    return 1.0 if backend == FLOAT else Fraction(1)


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
    """Immutable finitely supported sequence, stored as (index, value) pairs.

    Zero coefficients are dropped on construction, indices are kept sorted,
    and all stored values share one backend.  Float coefficients must be
    finite.
    """

    __slots__ = ("_entries", "_backend")

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
        if saw_float:
            backend = FLOAT
            raw = {i: float(v) for i, v in raw.items()}
        else:
            backend = EXACT if raw else None
            raw = {i: Fraction(v) for i, v in raw.items()}
        self._entries = tuple(sorted((i, v) for i, v in raw.items() if v != 0))
        self._backend = backend if self._entries else None

    @classmethod
    def _trusted(cls, entries, backend) -> "SparseVector":
        """Build from index-sorted (index, value) pairs whose values are
        already of ``backend``, skipping the validation and sorting of
        ``__init__``; zeros (also floats that underflowed to 0.0) are still
        dropped.  The arithmetic methods build their results here."""
        vec = cls.__new__(cls)
        vec._entries = tuple([e for e in entries if e[1] != 0])
        vec._backend = backend if vec._entries else None
        return vec

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
        return tuple(i for i, _ in self._entries)

    @property
    def max_index(self) -> int:
        return self._entries[-1][0] if self._entries else 0

    def items(self) -> Tuple[Tuple[int, Coeff], ...]:
        return self._entries

    def get(self, idx: int) -> Coeff:
        """Coefficient at ``idx`` (0 when absent), by a linear scan: an
        inspection helper, not for loops over the entries."""
        for i, v in self._entries:
            if i == idx:
                return v
            if i > idx:
                break
        return 0

    def to_dense(self, length: int = 0) -> list:
        n = max(length, self.max_index)
        out = [0] * n
        for i, v in self._entries:
            out[i - 1] = v
        return out

    def to_float(self) -> "SparseVector":
        """Copy of this vector in the float backend."""
        return SparseVector._trusted([(i, float(v)) for i, v in self._entries], FLOAT)

    # -- arithmetic ---------------------------------------------------------

    def scale(self, a: Coeff) -> "SparseVector":
        if self.is_zero or a == 0:
            return ZERO
        backend = join_backends(self._backend, None if isinstance(a, int) else _backend_of(a))
        if backend == FLOAT:
            a = float(a)  # a float subclass (a numpy scalar) must not leak into the entries
        return SparseVector._trusted([(i, a * v) for i, v in self._entries], backend)

    def add(self, other: "SparseVector") -> "SparseVector":
        backend = join_backends(self._backend, other._backend)
        return SparseVector._trusted(_merge(self._entries, other._entries, False), backend)

    def sub(self, other: "SparseVector") -> "SparseVector":
        backend = join_backends(self._backend, other._backend)
        return SparseVector._trusted(_merge(self._entries, other._entries, True), backend)

    __add__ = add
    __sub__ = sub

    def __neg__(self) -> "SparseVector":
        return self.scale(-1)

    # -- protocol glue ------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, Coeff]]:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v!r}" for i, v in self._entries)
        return f"SparseVector({{{body}}})"


def _merge(a, b, subtract: bool) -> list:
    """Entries of a + b (or a - b) for two index-sorted entry tuples, by one
    sorted merge.  Zero results are left for the caller to drop."""
    op = operator.sub if subtract else operator.add
    out = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ia = a[i][0]
        ib = b[j][0]
        if ia < ib:
            append(a[i])
            i += 1
        elif ib < ia:
            append((ib, -b[j][1]) if subtract else b[j])
            j += 1
        else:
            append((ia, op(a[i][1], b[j][1])))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend([(k, -v) for k, v in b[j:]] if subtract else b[j:])
    return out


ZERO = SparseVector()


# -- ambient spaces ---------------------------------------------------------


@dataclass(frozen=True)
class LpSpace:
    """The sequence space with norm (sum |xi|^p)^(1/p), p >= 1."""

    p: Coeff

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p!r}")


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


def lp_norm(x: SparseVector, p) -> Coeff:
    if x.is_zero:
        return _zero(x.backend)
    exact = x.backend == EXACT
    if not exact:
        p = float(p)
    if p == 1:
        return sum(abs(v) for _, v in x)
    if p == 2:
        squares = sum(v * v for _, v in x)
        if not exact:
            return math.sqrt(squares)
        root = exact_sqrt(squares)
        if root is None:
            raise BackendError(
                "the 2-norm of this vector is irrational; use float mode "
                "or norm_sq for the exact squared norm"
            )
        return root
    if exact:
        raise BackendError(f"exact norms are only available for p in {{1, 2}}, not p={p}; use float mode")
    return sum(abs(v) ** p for _, v in x) ** (1.0 / p)


def norm(x: SparseVector, space: Space) -> Coeff:
    """Norm of ``x`` under ``space``.  Nonnegative; zero iff ``x`` is zero."""
    if isinstance(space, LpSpace):
        return lp_norm(x, space.p)
    value = space.func(x)
    if value < 0:
        raise ValueError(f"norm oracle {space.name!r} returned a negative value")
    return value


def norm_sq(x: SparseVector, space: Space) -> Coeff:
    """Squared norm.  Exact for p in {1, 2} even when the norm is irrational."""
    if not isinstance(space, LpSpace):
        value = norm(x, space)
        return value * value
    if space.p == 2 and x.backend == EXACT:
        return sum((v * v for _, v in x), Fraction(0))
    return lp_norm(x, space.p) ** 2


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
