"""Complexity guards for the sparse kernels and the explicit sum that need
no timing.

``SparseVector.get`` finds an entry by binary search, but a kernel that calls
it once per entry still does a per-entry search and, in exact mode, builds a
Fraction for it.  On nnz-4096 vectors g, g_from_norm and tau must make no
``get`` call at all, and float tau, at p = 1 as at p > 1, must evaluate
|x + t*y| without building a vector.  On a float pair of nnz 1,024, oracle
tau takes at most 12 evaluations of the smooth l4 norm, and of a taxicab or
max norm exactly as many as the quotient-agreement rule alone (its value
too), and oracle ``g_from_norm`` exactly as many as oracle tau.  The
explicit cos^2 sum must take one determinant per coordinate, not one per
multi-index.  Left g-orthonormalization of d vectors must take (d - 1)^2
g-values (d(d - 1)/2 in exact l2, whose starred rows are 0 by symmetry),
and the explicit sum t(t + 1)/2 more of its own; a g-value counts whether
it comes from ``g`` or from a map of ``g_functional``.  The maps
(norm and weights over all of x) and the single ``g`` values (weights on
the shared support only) are counted apart: ``gram`` of d vectors prepares
each once, in ``semi_inner._gram_rows``, for d^2 g-values, d(d + 1)/2 at
p = 2, counted where they are formed (each entry the rows sum, each map
call), and left g-orthonormalization makes d - 2 maps, one per kept
starred row, which serve the later right-hand sides too, and d - 1 single
values, the right-hand-side entries of x_1*, which has no row.  So a float
left g-orthonormalization of d = 16 vectors takes 29 norm passes (2d - 3)
for the factors |x*| of the weights (|x*_i| / |x*|)^(p-1), one per map and
one per single value.  A single
float g at p != 2 calls ``sgn`` once per shared coordinate.  A Gram
matrix is eliminated once: ``project`` onto a subspace whose Gram data is
built takes d g-values from the maps its rows came from, with no new map and
no elimination, and left g-orthonormalization in lp eliminates nothing.
Exact Gram rows are ints: a projection onto a fresh subspace builds O(d)
Fractions, not one per Gram entry.  A
regression fails here on any machine.

An exact vector stores int numerators over one denominator, and the exact
kernels read those ints: on the nnz-4096 exact pair, g (p = 1, 2), the
1-norm, the squared 2-norm and l1 ``g_from_norm`` each build the one
Fraction they return, and storing the vector takes less memory per entry
than a Fraction would.  ``project`` builds y_S in one pass: two vectors per
call, y_S and the residual; a line angle builds y_S alone, and a plane angle
the y_S of each spanning vector.

Exact Gram algebra is fraction-free: eliminating an integer d-by-d matrix
builds no Fraction, its determinant one and a solve d, one per unknown, and
``project`` assembles y_S and its residual on ints, with no Fraction per
coordinate, onto eliminated Gram data as onto the unit lower-triangular
Gram data of a left g-orthonormal basis.  Exact starred rows are ints
too, and each step's forward substitution runs on them, one Fraction per
unknown.  So left g-orthonormalization builds a number of Fractions that
depends on d alone: its right-hand-side g-values, its coefficients and a
few per step, at most 2d^2 + 8."""

import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from gangle import (
    LpSpace,
    OracleSpace,
    SparseVector,
    Subspace,
    angle_line_subspace,
    angle_plane_subspace,
    cos_sq_explicit_sum,
    g,
    g_explicit,
    g_from_norm,
    gram,
    left_orthonormalize,
    lp_norm,
    norm,
    norm_sq,
    project,
    tau,
)
from gangle import angles, cli

from support import rand_rational_l2_basis, starred_subspace, tau_oracle_by_vectors

NNZ = 4096


def _pair(backend, nnz=NNZ):
    rng = random.Random(nnz)
    if backend == "exact":
        def value():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    else:
        def value():
            return rng.uniform(-1.0, 1.0) or 1.0

    # supports that overlap in about half their entries
    return tuple(
        SparseVector((i, value()) for i in rng.sample(range(1, 2 * nnz + 1), nnz))
        for _ in range(2)
    )


PAIRS = {backend: _pair(backend) for backend in ("exact", "float")}


@pytest.fixture
def get_calls(monkeypatch):
    calls = [0]
    original = SparseVector.get

    def counted(self, idx):
        calls[0] += 1
        return original(self, idx)

    monkeypatch.setattr(SparseVector, "get", counted)
    return calls


@pytest.fixture
def constructions(monkeypatch):
    """Counts vectors built by ``__init__``, by the float constructor or by
    the int constructor of exact arithmetic."""
    built = [0]
    init = SparseVector.__init__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseVector, "__init__", counted_init)
    for name in ("_checked", "_exact"):
        def counted(cls, *args, _build=getattr(SparseVector, name).__func__):
            built[0] += 1
            return _build(cls, *args)

        monkeypatch.setattr(SparseVector, name, classmethod(counted))
    return built


@pytest.fixture
def fractions_built(monkeypatch):
    """Counts Fraction objects built: every Fraction operation builds its
    result through ``Fraction.__new__``."""
    built = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


@pytest.fixture
def fraction_reads(monkeypatch):
    """Counts reads of a Fraction's ``numerator`` or ``denominator``."""
    reads = [0]
    for name in ("numerator", "denominator"):
        def counted(a, _read=getattr(Fraction, name).fget):
            reads[0] += 1
            return _read(a)

        monkeypatch.setattr(Fraction, name, property(counted))
    return reads


def test_the_counters_see_calls(get_calls, constructions, fractions_built, fraction_reads):
    x, y = PAIRS["float"]
    x.get(1)
    x.add(y)
    SparseVector({1: 1.0})
    SparseVector({1: 1}).sub(SparseVector({2: 1}))
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert get_calls[0] == 1
    assert constructions[0] == 5
    assert fractions_built[0] == 4
    assert Fraction(1, 3).numerator + Fraction(1, 3).denominator == 4
    assert fraction_reads[0] >= 2


# each builds the one Fraction it returns and reads none; one per entry would
# be 4096
FRACTION_BOUND = 3


@pytest.mark.parametrize(
    "kernel",
    [
        lambda x, y: g_explicit(x, y, 1),
        lambda x, y: g_explicit(x, y, 2),
        lambda x, y: lp_norm(x, 1),
        lambda x, y: norm_sq(x, LpSpace(2)),
        lambda x, y: g_from_norm(x, y, LpSpace(1)),
    ],
    ids=["g p=1", "g p=2", "lp_norm p=1", "norm_sq p=2", "g_from_norm p=1"],
)
def test_exact_kernels_build_few_fractions(fractions_built, fraction_reads, kernel):
    x, y = PAIRS["exact"]
    kernel(x, y)
    assert 0 < fractions_built[0] <= FRACTION_BOUND
    assert fraction_reads[0] <= FRACTION_BOUND


@pytest.mark.parametrize("backend,p", [("exact", 1), ("exact", 2), ("float", 1.5)])
def test_g_explicit_makes_no_get_call(get_calls, backend, p):
    x, y = PAIRS[backend]
    g_explicit(x, y, p)
    assert get_calls[0] == 0


def test_exact_l1_g_from_norm_makes_no_get_call(get_calls):
    x, y = PAIRS["exact"]
    g_from_norm(x, y, LpSpace(1))
    assert get_calls[0] == 0


@pytest.mark.parametrize("p", (1, 1.5))
def test_float_tau_makes_no_get_call_and_builds_no_vector(get_calls, constructions, p):
    x, y = PAIRS["float"]
    pair = tau(x, y, LpSpace(p))
    assert (pair.step_used > 0) == (p != 1)  # the l1 quotient or central differences ran
    assert get_calls[0] == 0
    assert constructions[0] == 0


def _counted_oracle(name, func):
    """An oracle space whose ``func`` counts its evaluations."""
    calls = [0]

    def counted(v):
        calls[0] += 1
        return func(v)

    return OracleSpace(counted, name), calls


def _l4(v):
    return sum(c ** 4 for _, c in v) ** 0.25


def test_oracle_tau_takes_few_evaluations_of_a_smooth_norm():
    # |x|, |y| and 5 quotients per side, where the quotient-agreement rule
    # alone takes 47 evaluations on this pair; the value keeps its accuracy
    x, y = _pair("float", 1024)
    space, calls = _counted_oracle("l4", _l4)
    pair = tau(x, y, space)
    assert calls[0] <= 12
    value = (pair.tau_plus + pair.tau_minus) / 2 * _l4(x)
    assert abs(value - g_explicit(x, y, 4)) <= 1e-9 * _l4(x) * _l4(y)


@pytest.mark.parametrize(
    "name,func",
    [
        ("taxicab", lambda v: sum(abs(c) for _, c in v)),
        ("max", lambda v: max((abs(c) for _, c in v), default=0.0)),
    ],
)
def test_oracle_tau_of_a_piecewise_linear_norm_takes_the_quotient_agreement_evaluations(name, func):
    x, y = _pair("float", 1024)
    space, calls = _counted_oracle(name, func)
    pair = tau(x, y, space)
    evaluations, calls[0] = calls[0], 0
    assert pair == tau_oracle_by_vectors(x, y, space, richardson=False)
    assert evaluations == calls[0]


@pytest.mark.parametrize(
    "name,func",
    [
        ("l4", _l4),
        ("taxicab", lambda v: sum(abs(c) for _, c in v)),
        ("max", lambda v: max((abs(c) for _, c in v), default=0.0)),
    ],
)
def test_oracle_g_from_norm_takes_the_evaluations_of_tau(name, func):
    """The |x| in front of (tau+ + tau-) / 2 is the one the quotients
    subtract, not a second evaluation."""
    x, y = _pair("float", 1024)
    space, calls = _counted_oracle(name, func)
    value = g_from_norm(x, y, space)
    evaluations, calls[0] = calls[0], 0
    pair = tau(x, y, space)
    assert evaluations == calls[0]
    assert value == sys.modules["gangle.semi_inner"]._g_from_pair(pair, norm(x, space))


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
def test_explicit_sum_takes_one_det_per_coordinate(monkeypatch, backend, p):
    x, y = PAIRS[backend]
    # t = 3 on overlapping supports of 6 entries each, plus a longer u
    basis = [SparseVector(list(x)[k : k + 6]) for k in (0, 3, 6)]
    V = Subspace(basis, LpSpace(p))
    calls = [0]
    original = angles.det

    def counted(rows):
        calls[0] += 1
        return original(rows)

    monkeypatch.setattr(angles, "det", counted)
    cos_sq_explicit_sum(SparseVector(list(y)[:32]), V)
    starred = left_orthonormalize(basis, V.space)
    assert calls[0] == len(set().union(*(v.support for v in starred)))


def _triangular_basis(d, backend):
    """d independent vectors: x_k has a nonzero at coordinate k and up to
    three more entries after it."""
    rng = random.Random(d)
    basis = []
    for k in range(1, d + 1):
        entries = {k: rng.choice([-2, -1, 1, 3])}
        for i in rng.sample(range(k + 1, d + 5), 3):
            entries[i] = rng.randint(-3, 3)
        if backend == "float":
            entries = {i: float(v) for i, v in entries.items()}
        basis.append(SparseVector({i: v for i, v in entries.items() if v}))
    return basis


@pytest.fixture
def g_calls(monkeypatch):
    """g-values computed by the gram module and by the angles module, through
    ``g`` or through the maps they prepare, and under keys of their own the
    maps prepared and the single values (``g`` calls) of both modules.  The
    angles module prepares a map by ``g_functional``; the gram module by
    ``semi_inner._row``, whose row of values, ints in exact mode, counts as
    g-values of the gram module too."""
    calls = {"gram": 0, "angles": 0, "maps": 0, "single": 0}
    gram_module = sys.modules["gangle.gram"]

    def counting(g_x, name):
        calls["maps"] += 1

        def counted_map(y):
            calls[name] += 1
            return g_x(y)

        return counted_map

    for name, module in (("gram", gram_module), ("angles", angles)):
        def counted(x, y, space, _name=name, _g=module.g):
            calls[_name] += 1
            calls["single"] += 1
            return _g(x, y, space)

        monkeypatch.setattr(module, "g", counted)

    def counted_functional(x, space, _prepare=angles.g_functional):
        return counting(_prepare(x, space), "angles")

    def counted_row(x, others, space, _prepare=gram_module._row):
        g_x, row = _prepare(x, others, space)
        calls["gram"] += len(row)
        return counting(g_x, "gram"), row

    monkeypatch.setattr(angles, "g_functional", counted_functional)
    monkeypatch.setattr(gram_module, "_row", counted_row)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """Gaussian eliminations: calls of ``gram._eliminate``, which ``det``
    and ``gram`` go through."""
    calls = [0]
    gram_module = sys.modules["gangle.gram"]
    eliminate = gram_module._eliminate

    def counted(rows, *scales):
        calls[0] += 1
        return eliminate(rows, *scales)

    monkeypatch.setattr(gram_module, "_eliminate", counted)
    return calls


def test_the_elimination_counter_sees_calls(eliminations):
    gram_module = sys.modules["gangle.gram"]
    gram_module.det([[1, 2], [3, 4]])
    gram([SparseVector({1: 1}), SparseVector({2: 1})], LpSpace(1))
    project(SparseVector({1: 1, 2: 1}), Subspace([SparseVector({1: 1})], LpSpace(1)))
    assert eliminations[0] == 3


def _orthonormalize_counts(d):
    """Maps and single values of left g-orthonormalization: one map per kept
    row of the starred Gram matrix, d - 2 for d >= 2, which also serves the
    later right-hand sides, and one single value per right-hand-side entry
    of x_1*, which has no row, d - 1; (d - 1)^2 g-values in all."""
    return {"maps": max(d - 2, 0), "single": max(d - 1, 0)}


def test_the_g_counters_see_both_routes(g_calls):
    gram_module = sys.modules["gangle.gram"]
    x = SparseVector({1: 1, 2: -2})
    g_x, row = gram_module._row(x, [x], LpSpace(1))
    assert len(row) == 1
    g_x(SparseVector({2: 1}))
    gram_module.g(x, x, LpSpace(1))
    angles.g(x, x, LpSpace(1))
    assert g_calls == {"gram": 3, "angles": 1, "maps": 1, "single": 2}


@pytest.fixture
def sgn_calls(monkeypatch):
    """Calls of ``sgn`` from the semi_inner module: one per weight
    |xi|^(p-1) * sgn(xi) formed in float mode at p != 2."""
    calls = [0]
    semi_inner = sys.modules["gangle.semi_inner"]
    sgn = semi_inner.sgn

    def counted(t):
        calls[0] += 1
        return sgn(t)

    monkeypatch.setattr(semi_inner, "sgn", counted)
    return calls


@pytest.mark.parametrize("p", (1, 1.5, 3))
def test_a_single_float_g_weighs_only_the_shared_support(sgn_calls, p):
    x, y = PAIRS["float"]
    shared = len(set(x.support) & set(y.support))
    assert 0 < shared < NNZ
    value = g(x, y, LpSpace(p))
    assert sgn_calls[0] == shared
    sgn_calls[0] = 0
    assert sys.modules["gangle.semi_inner"].g_functional(x, LpSpace(p))(y) == value
    assert sgn_calls[0] == NNZ  # a map weighs all of x
    sgn_calls[0] = 0
    disjoint = SparseVector({2 * NNZ + 1: 1.0})
    assert g(x, disjoint, LpSpace(p)) == 0.0
    assert sgn_calls[0] == 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Preparations of a first argument (``semi_inner._closed_form`` calls)
    and g-values where they are formed: each call of a map that
    ``semi_inner._map`` makes (the maps a subspace keeps, which the gram
    module's ``g`` and ``g_functional`` do not see), and each entry that
    ``semi_inner._gram_rows`` computes, one ``sum`` of its products, read as
    the ``sum`` calls made from that function's code (a comprehension in it
    included)."""
    semi_inner = sys.modules["gangle.semi_inner"]
    calls = {"preparations": 0, "values": 0}

    def prepare(*args, _prepare=semi_inner._closed_form):
        calls["preparations"] += 1
        return _prepare(*args)

    def make(*args, _make=semi_inner._map):
        g_x = _make(*args)

        def counted(y):
            calls["values"] += 1
            return g_x(y)

        return counted

    def entry_sum(*args, _rows=semi_inner._gram_rows.__code__):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<listcomp>":  # a frame of its own before Python 3.12
            frame = frame.f_back
        if frame.f_code is _rows:
            calls["values"] += 1
        return sum(*args)

    monkeypatch.setattr(semi_inner, "_closed_form", prepare)
    monkeypatch.setattr(semi_inner, "_map", make)
    monkeypatch.setattr(semi_inner, "sum", entry_sum, raising=False)
    return calls


def test_the_kernel_counters_see_calls(kernel_calls):
    x = SparseVector({1: 1, 2: -2})
    sys.modules["gangle.semi_inner"].g_functional(x, LpSpace(1))(x)
    g(x, x, LpSpace(1))
    assert kernel_calls == {"preparations": 2, "values": 1}
    gram([x, SparseVector({2: 3})], LpSpace(1))
    assert kernel_calls == {"preparations": 4, "values": 5}  # four entries, no map call


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_gram_prepares_each_first_argument_once(g_calls, kernel_calls, backend, p, d):
    gram(_triangular_basis(d, backend), LpSpace(p))
    assert kernel_calls == {"preparations": d, "values": d * d}
    assert g_calls == {"gram": 0, "angles": 0, "maps": 0, "single": 0}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_gram_at_p_2_computes_the_upper_triangle(kernel_calls, backend, d):
    """g is symmetric at p = 2: d(d + 1)/2 g-values, the rest mirrored."""
    data = gram(_triangular_basis(d, backend), LpSpace(2))
    assert kernel_calls == {"preparations": d, "values": d * (d + 1) // 2}
    assert all(row[k] == data.matrix[k][i] for i, row in enumerate(data.matrix) for k in range(d))


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_orthonormalize_takes_d_minus_one_squared_g_calls(g_calls, eliminations, backend, p, d):
    out = left_orthonormalize(_triangular_basis(d, backend), LpSpace(p))
    assert len(out) == d
    assert g_calls == {"gram": (d - 1) ** 2, "angles": 0, **_orthonormalize_counts(d)}  # 14 maps at d = 16
    assert eliminations[0] == 0  # each step solves by forward substitution


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_exact_l2_orthonormalize_takes_no_starred_row_values(g_calls, d):
    """In exact l2 each starred row g(x_k*, x_j*), j < k, is 0 by symmetry
    and takes no g-value: the right-hand sides alone, d(d - 1)/2."""
    basis = rand_rational_l2_basis(random.Random(d), d, 6)
    assert len(left_orthonormalize(basis, LpSpace(2))) == d
    assert g_calls == {"gram": d * (d - 1) // 2, "angles": 0, **_orthonormalize_counts(d)}


def test_orthonormalize_takes_one_norm_pass_per_map_and_single_g(monkeypatch):
    """Each map and each single g takes the factor |x*|^(2-p) from one norm
    pass over its starred vector: 2d - 3 passes, 29 at d = 16; a single g
    per right-hand-side entry would take d(d - 1)/2 + d - 2, 134."""
    semi_inner = sys.modules["gangle.semi_inner"]
    calls = [0]

    def counted(x, p, _norm=semi_inner.lp_norm):
        calls[0] += 1
        return _norm(x, p)

    monkeypatch.setattr(semi_inner, "lp_norm", counted)
    out = left_orthonormalize(_triangular_basis(16, "float"), LpSpace(1.5))
    assert len(out) == 16
    assert calls[0] == 29


@pytest.fixture
def gram_records(monkeypatch):
    """Counts of ``gram._det`` calls and of ``GramData`` records built."""
    gram_module = sys.modules["gangle.gram"]
    counts = {"det": 0, "GramData": 0}
    det, init = gram_module._det, gram_module.GramData.__init__

    def counted_det(factors):
        counts["det"] += 1
        return det(factors)

    def counted_init(self, *args):
        counts["GramData"] += 1
        init(self, *args)

    monkeypatch.setattr(gram_module, "_det", counted_det)
    monkeypatch.setattr(gram_module.GramData, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
def test_orthonormalize_and_explicit_sum_build_no_gram_data(gram_records, backend, p):
    """Each step solves with the kept rows as factors: no Gram data and no
    determinant for the starred basis.  The explicit sum pads those rows
    with the ints 1 and 0 itself: its determinants are the D_j alone."""
    basis = _triangular_basis(16, backend)
    assert len(left_orthonormalize(basis, LpSpace(p))) == 16
    assert gram_records == {"det": 0, "GramData": 0}
    u = _triangular_basis(19, backend)[0]
    V = Subspace(basis[:4], LpSpace(p))
    starred = left_orthonormalize(V.basis, V.space)
    cos_sq_explicit_sum(u, V)
    assert gram_records == {"det": len(set().union(*(v.support for v in starred))), "GramData": 0}
    gram(basis, LpSpace(p))
    assert gram_records["GramData"] == 1


def test_a_subspace_checks_its_basis_once(monkeypatch):
    gram_module = sys.modules["gangle.gram"]
    calls = [0]

    def counted(basis, _basis=gram_module._basis):
        calls[0] += 1
        return _basis(basis)

    monkeypatch.setattr(gram_module, "_basis", counted)
    V = Subspace(_triangular_basis(4, "exact"), LpSpace(1))
    V.gram()
    assert calls[0] == 1


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_project_on_a_built_subspace_takes_d_g_values_and_no_elimination(
    g_calls, kernel_calls, eliminations, backend, p, d
):
    V = Subspace(_triangular_basis(d, backend), LpSpace(p))
    V.gram()
    assert eliminations[0] == 1
    kernel_calls.update(preparations=0, values=0)
    for y in _triangular_basis(d + 3, backend)[:3]:
        project(y, V)
    assert kernel_calls == {"preparations": 0, "values": 3 * d}  # the kept maps, no new one
    assert g_calls == {"gram": 0, "angles": 0, "maps": 0, "single": 0}
    assert eliminations[0] == 1


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
def test_project_on_a_built_subspace_builds_two_vectors(constructions, backend, p):
    V = Subspace(_triangular_basis(8, backend), LpSpace(p))
    V.gram()
    y = _triangular_basis(11, backend)[0]
    constructions[0] = 0
    proj = project(y, V)
    assert not proj.projected.is_zero
    assert constructions[0] == 2  # y_S and the residual


@pytest.mark.parametrize("backend,p", [("exact", 2), ("float", 1.5)])
def test_angles_onto_a_built_subspace_build_y_s_and_no_residual(constructions, backend, p):
    V = Subspace(_triangular_basis(8, backend), LpSpace(p))
    V.gram()
    u = _triangular_basis(11, backend)[0]
    U = Subspace(_triangular_basis(10, backend)[:2], LpSpace(p))
    constructions[0] = 0
    angle_line_subspace(u, V)
    assert constructions[0] == 1  # y_S
    constructions[0] = 0
    angle_plane_subspace(U, V)
    assert constructions[0] == 2  # y_S of each spanning vector


# exact l2: in l1 the cos^2 ratio of these planes can exceed 1 and raise
@pytest.mark.parametrize("backend,p", [("exact", 2), ("float", 1.5)])
@pytest.mark.parametrize("t", [2, 4, 8])
def test_plane_angle_eliminates_once_for_the_gram_of_v(eliminations, backend, p, t):
    U = Subspace(_triangular_basis(t + 2, backend)[:2], LpSpace(p))
    V = Subspace(_triangular_basis(t, backend), LpSpace(p))
    angle_plane_subspace(U, V)
    assert eliminations[0] == 1


@pytest.mark.parametrize("backend,p", [("exact", 1), ("float", 1.5)])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_explicit_sum_takes_t_times_t_plus_one_over_two_g_calls(g_calls, backend, p, t):
    u = _triangular_basis(t + 1, backend)[0]
    V = Subspace(_triangular_basis(t, backend), LpSpace(p))
    cos_sq_explicit_sum(u, V)
    counts = _orthonormalize_counts(t)
    assert g_calls == {
        "gram": (t - 1) ** 2,
        "angles": t * (t + 1) // 2,
        "maps": counts["maps"] + t,  # one per starred vector
        "single": counts["single"],
    }


def _int_matrix(d):
    """A nonsingular d-by-d int matrix: small entries, dominant diagonal."""
    rng = random.Random(d)
    return [[rng.randint(-9, 9) + (50 if i == k else 0) for k in range(d)] for i in range(d)]


@pytest.mark.parametrize("d", [4, 8, 16])
def test_exact_elimination_determinant_and_solve_build_o_of_d_fractions(fractions_built, d):
    gram_module = sys.modules["gangle.gram"]
    factors = gram_module._eliminate(_int_matrix(d))
    assert fractions_built[0] == 0
    gram_module._det(factors)
    assert fractions_built[0] == 1
    fractions_built[0] = 0
    gram_module._substitute(factors, list(range(1, d + 1)))
    assert fractions_built[0] == d


def test_exact_project_onto_a_fresh_subspace_builds_o_of_d_fractions(fractions_built):
    """The Gram rows are ints: a projection onto a fresh subspace builds its
    d right-hand-side g-values and d coefficients, not the d^2 entries of a
    Gram matrix."""
    d = 16
    V = Subspace(_triangular_basis(d, "exact"), LpSpace(1))
    y = _triangular_basis(d + 3, "exact")[0]
    fractions_built[0] = 0
    assert not project(y, V).projected.is_zero
    assert fractions_built[0] <= 2 * d


@pytest.mark.parametrize("d", [4, 8, 16])
def test_exact_project_builds_no_fraction_for_y_s(fractions_built, d):
    """The Fractions ``project`` builds are those of the subspace's solver:
    its right-hand side, as many as d maps of ``g_functional`` build, and d
    coefficients.  y_S and the residual take none, onto eliminated Gram
    data as onto the starred basis of a left g-orthonormalization."""
    y = _triangular_basis(d + 3, "exact")[0]

    def built(compute):
        fractions_built[0] = 0
        value = compute()
        return value, fractions_built[0]

    basis = _triangular_basis(d, "exact")
    for V in (Subspace(basis, LpSpace(1)), starred_subspace(basis, LpSpace(1))):
        V.gram()  # keeps the starred solver that starred_subspace set
        maps = [sys.modules["gangle.semi_inner"].g_functional(x, V.space) for x in V.basis]
        _, rhs_count = built(lambda: [g_x(y) for g_x in maps])
        _, solver_count = built(lambda: V._solver(y))
        proj, project_count = built(lambda: project(y, V))
        _, residual_count = built(lambda: y.sub(proj.projected))
        assert solver_count == rhs_count + d  # d coefficients from the solve
        assert len(proj.projected.support) > d
        assert project_count == solver_count
        assert residual_count == 0


def _wide_basis(d, nnz):
    """d exact vectors with nnz entries each, in 4 * nnz coordinates."""
    rng = random.Random(d)
    return [
        SparseVector(
            (i, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
            for i in rng.sample(range(1, 4 * nnz + 1), nnz)
        )
        for _ in range(d)
    ]


@pytest.mark.parametrize("nnz", [8, 512])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_exact_orthonormalize_builds_fractions_by_d_not_by_entry(fractions_built, d, nnz):
    """The right-hand-side g-values, d(d - 1)/2, the k coefficients of step
    k's forward substitution on ints, d(d - 1)/2 more, and O(1) per step
    (the norm and the scale 1 / |y_k|), at most 2d^2 + 8 in all: no
    Fraction per entry of a residual or a starred vector, per entry of a
    starred row or per operation of a substitution (k(k - 1) at step k on
    Fraction objects)."""
    basis = _wide_basis(d, nnz)
    fractions_built[0] = 0
    out = left_orthonormalize(basis, LpSpace(1))
    assert len(out) == d and all(len(v.support) >= nnz for v in out)
    assert fractions_built[0] <= 2 * d * d + 8


def test_loading_an_exact_problem_file_of_ints_builds_no_fraction(fractions_built, tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(
        '{"p": 1, "mode": "exact", "vectors": {"x": [3, -1, 0, 2], "y": [[2, 5], [9, -4]]},'
        ' "subspaces": {"V": ["x", "y"]}}'
    )
    problem = cli.load_problem(str(path))
    assert fractions_built[0] == 0
    assert problem.vectors["y"].backend == "exact"
    assert problem.vectors["x"] == SparseVector({1: 3, 2: -1, 4: 2})


BYTES_PER_ENTRY = 90  # about 82 for int numerators; 112 for Fraction values


def test_exact_vector_stores_less_than_a_fraction_per_entry():
    """Memory an nnz-4096 exact vector keeps once built from the values of
    the exact pair.  ``gc.collect`` empties the tuple free list before and
    after, so every tuple the vector keeps, and none it dropped, is traced."""
    entries = list(PAIRS["exact"][0].items())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vec = SparseVector(entries)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(vec.support) == NNZ
    assert kept <= BYTES_PER_ENTRY * NNZ
