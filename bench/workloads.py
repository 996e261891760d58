"""Task decks of the three benchmark workloads.

A deck is a list of :class:`Task` objects built from ``random.Random(seed)``
through the library's own constructors.  The benchmark runs the deck in order
and wraps around when it reaches the end.  Input sizes are fixed quantiles of
each size range, the same for every seed, so that a deck's total work depends
little on the seed; values, supports and the order of the deck come from the
seed.

Each task pairs one user-level call with an untimed check built from a route
that is independent of the one the call took.  ``G`` is the imported
``gangle`` package; task calls look functions up on it at call time so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

NONZERO = tuple(v for v in range(-9, 10) if v)
FLOAT_TOL = 1e-7    # float routes agree to this share of the natural scale
# The norm-oracle route stops once two one-sided quotients at steps down to
# 2^-40 agree; the rounding error of |x + t y| - |x| divided by such a step
# reaches about eps * sqrt(nnz) * 2^30 ~ 1e-5 at nnz 4096, which is what it
# returns on these inputs.  Larger deviations fail the check.
ORACLE_TOL = 1e-3
UNIT_TOL = 1e-9     # orthonormalization: |norm - 1| and |g(x_k*, x_l*)|

WORKLOADS = ("wide-sparse", "deep-basis", "cli-replay")


class Task:
    """One user-level call.

    ``call()`` runs the library; ``check(result)`` returns True when the
    result passes the untimed correctness check.  ``required`` names the
    typed errors the input was built to raise (raising one of them is the
    correct outcome), ``allowed`` the documented typed errors the input did
    not require.  ``exact`` marks exact-mode tasks, whose results enter the
    exact digest."""

    __slots__ = ("kind", "call", "check", "exact", "allowed", "required")

    def __init__(self, kind, call, check, *, exact, allowed=(), required=()):
        self.kind = kind
        self.call = call
        self.check = check
        self.exact = exact
        self.allowed = allowed
        self.required = required


# -- generators ---------------------------------------------------------------


def sizes(n, lo, hi):
    """The midpoints of n equal slices of the log-uniform range [lo, hi],
    ascending."""
    return [round(lo * (hi / lo) ** ((k + 0.5) / n)) for k in range(n)]


def coeff(rng, exact):
    if exact:
        return rng.choice(NONZERO)
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)


def sparse(G, rng, nnz, universe, exact):
    """Random vector with nnz nonzeros among coordinates 1..universe."""
    return G.SparseVector((i, coeff(rng, exact)) for i in rng.sample(range(1, universe + 1), nnz))


def pairs(pool):
    """Neighbours in a pool sorted by size, in both argument orders: the
    pairs span the size range, and their costs are the same for every seed."""
    out = []
    for x, y in zip(pool[0::2], pool[1::2]):
        out += [(x, y), (y, x)]
    return out


# -- independent reference values -------------------------------------------


def dot(x, y):
    ys = dict(y.items())
    return sum((v * ys.get(i, 0) for i, v in x.items()), 0)


def l4_norm(x):
    return sum(v * v * v * v for _, v in x.items()) ** 0.25


def close(a, b, scale, tol=FLOAT_TOL):
    return abs(float(a) - float(b)) <= tol * max(float(scale), 1e-300)


def agree(a, b, scale):
    """Exact equality for exact values, a scaled tolerance for floats."""
    if isinstance(a, float) or isinstance(b, float):
        return close(a, b, scale)
    return a == b


def exact_rank(vectors):
    """Rank of a list of SparseVectors, by Fraction elimination over their
    coordinates (floats are converted exactly)."""
    cols = sorted({i for v in vectors for i, _ in v.items()})
    rows = [[Fraction(dict(v.items()).get(c, 0)) for c in cols] for v in vectors]
    rank = 0
    for c in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def nscale(G, x, y, space):
    """|x| |y| under space, through squared norms (exact p=2 norms can be irrational)."""
    return math.sqrt(float(G.norm_sq(x, space)) * float(G.norm_sq(y, space)))


def g_ref(G, x, y, space):
    """g by a route other than the closed form: the norm-derivative
    definition, or a plain dot product at p = 2 in exact mode.  Float inputs
    are scaled to unit norm first (g is homogeneous in each argument), which
    keeps the difference quotients well scaled when |y| and |x| differ a lot."""
    if isinstance(space, G.LpSpace) and space.p == 2 and x.backend != "float":
        return dot(x, y)
    if x.backend != "float" or x.is_zero or y.is_zero:
        return G.g_from_norm(x, y, space)
    nx, ny = G.norm(x, space), G.norm(y, space)
    return G.g_from_norm(x.scale(1 / nx), y.scale(1 / ny), space) * nx * ny


# -- checks shared by several workloads ---------------------------------------


def check_projection(G, y, basis, space, pr):
    exact = y.backend != "float"
    for b in basis:
        r = G.g(b, pr.residual, space)
        if exact and r != 0:
            return False
        if not exact and not close(r, 0.0, nscale(G, b, y, space)):
            return False
    return True


def check_orthonormal(G, basis, space, out):
    if len(out) != len(basis):
        return False
    exact = basis[0].backend != "float"
    for k, v in enumerate(out):
        if not agree(G.norm(v, space), 1, 1):
            return False
        for w in out[k + 1:]:
            gkl = G.g(v, w, space)
            if (gkl != 0) if exact else not close(gkl, 0.0, 1, UNIT_TOL):
                return False
    return True


def in_unit(v):
    return 0 <= v <= 1


# -- wide-sparse ---------------------------------------------------------------


def wide_sparse(G, rng, workdir):
    """g, tau and subspace queries on long vectors (nnz 256..4096)."""
    L1, L2, P15, P3 = G.LpSpace(1), G.LpSpace(2), G.LpSpace(1.5), G.LpSpace(3)
    L4 = G.OracleSpace(l4_norm, "l4")
    universe = 8192
    E = [sparse(G, rng, n, universe, True) for n in sizes(10, 256, 4096)]
    F = [sparse(G, rng, n, universe, False) for n in sizes(10, 256, 4096)]
    deck = []

    # ~40%: g in both argument orders.
    for space, pool, exact in ((L1, E, True), (L2, E, True), (P15, F, False), (P3, F, False)):
        for a, b in pairs(pool):
            deck.append(Task(
                f"g p={space.p}",
                lambda a=a, b=b, s=space: G.g(a, b, s),
                lambda r, a=a, b=b, s=space: agree(r, g_ref(G, a, b, s), nscale(G, a, b, s)),
                exact=exact,
            ))

    # ~30%, heavy: the norm-derivative route on pools of its own.
    E = [sparse(G, rng, n, universe, True) for n in sizes(12, 256, 4096)]
    F = [sparse(G, rng, n, universe, False) for n in sizes(12, 256, 4096)]
    for x, y in pairs(E):
        deck.append(Task(
            "g_from_norm p=1",
            lambda x=x, y=y: G.g_from_norm(x, y, L1),
            lambda r, x=x, y=y: r == G.g_explicit(x, y, 1),
            exact=True,
        ))
    for x, y in pairs(F):
        deck.append(Task(
            "tau p=1.5",
            lambda x=x, y=y: G.tau(x, y, P15),
            lambda r, x=x, y=y: close(
                0.5 * G.norm(x, P15) * (r.tau_plus + r.tau_minus),
                G.g_explicit(x, y, 1.5), nscale(G, x, y, P15)),
            exact=False,
        ))
    # One argument order per pair: the oracle raises EstimationFailureError
    # on some long float pairs, and a typed error is not a failure.
    for k, (x, y) in enumerate(pairs(F)[::2]):
        if k % 2:
            call = lambda x=x, y=y: G.tau(x, y, L4)
            value = lambda r, x=x: 0.5 * l4_norm(x) * (r.tau_plus + r.tau_minus)
        else:
            call = lambda x=x, y=y: G.g_from_norm(x, y, L4)
            value = lambda r: r
        deck.append(Task(
            "tau l4-oracle" if k % 2 else "g_from_norm l4-oracle",
            call,
            lambda r, x=x, y=y, value=value: close(
                value(r), G.g_explicit(x, y, 4), l4_norm(x) * l4_norm(y), ORACLE_TOL),
            exact=False,
            allowed=("EstimationFailureError",),
        ))

    # ~30%: queries against 4 fixed subspaces whose Gram data all queries share.
    for space, dim, exact in ((L1, 2, True), (L2, 3, True), (P15, 3, False), (P3, 2, False)):
        basis = [sparse(G, rng, n, universe, exact) for n in sizes(dim, 256, 1024)]
        V = G.Subspace(basis, space)
        queries = [sparse(G, rng, n, universe, exact) for n in sizes(8, 256, 1024)]
        # Query k gets size rank 3k mod 8, so each query kind gets a spread of sizes.
        for k in range(8):
            q = queries[3 * k % 8]
            b = basis[k % dim]
            deck.append(_subspace_query(G, k, q, b, V, exact))
    rng.shuffle(deck)
    return deck


def _subspace_query(G, k, q, b, V, exact):
    space = V.space
    documented = ("ConsistencyError", "DegenerateSubspaceError")
    if k < 2:
        return Task(
            "project", lambda: G.project(q, V),
            lambda r: check_projection(G, q, V.basis, space, r),
            exact=exact, allowed=documented,
        )
    if k < 4:
        def check_line(r):
            # cos^2 recomputed from the projection with g by another route.
            u_v = G.project(q, V).projected
            if u_v.is_zero:
                return r.cos_sq == 0
            guvu = g_ref(G, u_v, q, space)
            nsu, nsuv = G.norm_sq(q, space), G.norm_sq(u_v, space)
            return in_unit(r.cos_sq) and agree(r.cos_sq, guvu * guvu / (nsu * nsuv), 1)
        return Task("angle_line_subspace", lambda: G.angle_line_subspace(q, V), check_line,
                    exact=exact, allowed=documented)
    if k < 6:
        def check_vec(r):
            gyx = g_ref(G, q, b, space)
            return agree(r.cos_sq, gyx * gyx / (G.norm_sq(b, space) * G.norm_sq(q, space)), 1)
        return Task("vector_angle", lambda: G.vector_angle(b, q, space), check_vec,
                    exact=exact, allowed=documented)

    def check_lambda(r):
        nn = G.norm_sq(b, space) * G.norm_sq(q, space)
        ref = nn - abs(g_ref(G, b, q, space)) * abs(g_ref(G, q, b, space))
        return r.value_sq >= 0 and agree(r.value_sq, ref, nn)
    return Task("lambda_functional", lambda: G.lambda_functional(b, q, space), check_lambda,
                exact=exact, allowed=documented)


# -- deep-basis ----------------------------------------------------------------


def deep_basis(G, rng, workdir):
    """Fresh d-dimensional bases (d in 4..16) of short vectors in every task."""
    L1, L2, P15, P3 = G.LpSpace(1), G.LpSpace(2), G.LpSpace(1.5), G.LpSpace(3)
    blocks = 3
    deck = []
    for d in (4, 8, 12, 16):
        for block in range(blocks):
            # Window of W coordinates and the nnz of each basis vector: fixed
            # quantiles of 2d..64 and of 8..min(32, W).
            W = round(2 * d + (64 - 2 * d) * (block + 0.5) / blocks)
            nnz = [round(8 + (min(32, W) - 8) * (j + 0.5) / d) for j in range(d)]

            def vec(exact, j=d // 2, W=W, nnz=nnz):
                return sparse(G, rng, nnz[j], W, exact)

            def basis(exact):
                return [vec(exact, j) for j in range(d)]

            for space, exact in ((L1, True), (P15, False), (P3, False)):
                B = basis(exact)
                deck.append(Task(
                    f"left_orthonormalize p={space.p} d={d}",
                    lambda B=B, s=space: G.left_orthonormalize(B, s),
                    lambda r, B=B, s=space: check_orthonormal(G, B, s, r),
                    exact=exact, allowed=("DependenceError",),
                ))
            for space, exact in ((L1, True), (L2, True), (P15, False)):
                B, y = basis(exact), vec(exact)
                deck.append(Task(
                    f"project p={space.p} d={d}",
                    lambda B=B, y=y, s=space: G.project(y, G.Subspace(B, s)),
                    lambda r, B=B, y=y, s=space: check_projection(G, y, B, s, r),
                    exact=exact, allowed=("DegenerateSubspaceError",),
                ))
            for space, exact in ((L1, True), (P3, False)):
                B = basis(exact)
                deck.append(_gram_task(G, B, space, exact, degenerate=False))
            B, space = _degenerate_basis(G, rng, basis, d, W, block)
            deck.append(_gram_task(G, B, space, B[0].backend != "float", degenerate=True))
            for space, exact in ((L1, True), (L2, True), (P15, False)):
                B, u1, u2 = basis(exact), vec(exact), vec(exact)
                deck.append(_plane_task(G, u1, u2, B, space, exact))
    rng.shuffle(deck)
    return deck


def _degenerate_basis(G, rng, basis, d, W, block):
    """A basis whose Gram determinant is zero by construction.

    Block 0: exact l1, positive entries on one common support, so
    g(x_i, x_k) = |x_i| |x_k| and the Gram matrix has rank 1 although the
    vectors are independent (the {(1,2),(2,1)} phenomenon).  Blocks 1 and 2:
    the last vector is the sum of the first two (exact l2, float p=1.5);
    g is linear in its second argument, so the last Gram column is the sum of
    the first two."""
    if block == 0:
        support = rng.sample(range(1, W + 1), max(d, min(32, W) // 2))
        return [G.SparseVector((i, rng.randint(1, 9)) for i in support) for _ in range(d)], G.LpSpace(1)
    space, exact = (G.LpSpace(2), True) if block == 1 else (G.LpSpace(1.5), False)
    B = basis(exact)[:-1]
    return B + [B[0].add(B[1])], space


def _gram_task(G, B, space, exact, degenerate):
    def call():
        data = G.gram(B, space)
        return data, G.certifies_independence(data)

    def check(r):
        data, certified = r
        if degenerate:
            return certified is False
        # A certificate guarantees independence; without one, p = 2 must be dependent.
        independent = exact_rank(B) == len(B)
        if certified:
            return independent
        return space.p != 2 or not independent

    return Task(
        f"gram p={space.p} d={len(B)}" + (" degenerate" if degenerate else ""),
        call, check, exact=exact,
        required=("DegenerateSubspaceError",) if degenerate else (),
    )


def _plane_task(G, u1, u2, B, space, exact):
    def check(r):
        if not in_unit(r.cos_sq):
            return False
        if space.p == 2 and exact:
            # Squared-area ratio from plain dot products of the projections.
            V = G.Subspace(B, space)
            p1, p2 = G.project(u1, V).projected, G.project(u2, V).projected
            top = dot(p1, p1) * dot(p2, p2) - dot(p1, p2) ** 2
            base = dot(u1, u1) * dot(u2, u2) - dot(u1, u2) ** 2
            return r.cos_sq == top / base
        return abs(r.angle_rad - math.acos(math.sqrt(float(r.cos_sq)))) <= 1e-12

    return Task(
        f"angle_plane_subspace p={space.p} d={len(B)}",
        lambda: G.angle_plane_subspace(G.Subspace([u1, u2], space), G.Subspace(B, space)),
        check, exact=exact, allowed=("ConsistencyError", "DegenerateSubspaceError"),
    )


# -- cli-replay ----------------------------------------------------------------

# (file, command, expected exit code) for the bundled problems/*.json files.
BUNDLED = (
    ("area_counterexample_l1", "g x y", 0),
    ("area_counterexample_l1", "g y z", 0),
    ("area_counterexample_l1", "g x yz", 0),
    ("area_counterexample_l1", "g yz x", 0),
    ("gram_degenerate_l1", "gram S", 3),
    ("gram_degenerate_l1", "project x1 S", 3),
    ("gram_degenerate_l1", "orthonormalize S", 0),
    ("gram_degenerate_l1", "g x1 x2", 0),
    ("line_vs_plane_l1", "angle U V", 0),
    ("line_vs_plane_l1", "project u V", 0),
    ("line_vs_plane_l1", "orthonormalize V", 0),
    ("line_vs_plane_l1", "gram V", 0),
    ("line_vs_plane_l1", "g u e1", 0),
    ("nonsymmetry_l1", "g x y", 0),
    ("nonsymmetry_l1", "g y x", 0),
    ("nonsymmetry_l1", "angle X Y", 0),
    ("nonsymmetry_l1", "angle Y X", 0),
    ("plane_vs_space_l1", "angle U V", 0),
    ("plane_vs_space_l1", "project u1 V", 0),
    ("plane_vs_space_l1", "project u2 V", 0),
    ("plane_vs_space_l1", "orthonormalize V", 0),
    ("plane_vs_space_l1", "gram U", 0),
    ("plane_vs_space_l1", "gram V", 0),
    ("plane_vs_space_l1", "g u1 u2", 0),
)

# Commands run on each generated lp line-vs-subspace file.
GENERATED = ("angle L Va1", "angle L Va2", "project u Va3", "orthonormalize Va3", "gram Va3", "g u w")
# Groups in the exact l1 file.  Its 2 x 9 t=3 angle calls are about 15% of
# the deck, so the explicit sum sets latency_p90_ms.
EXACT_GROUPS = "abcdefghi"


def _dominant_basis(rng, t, W, exact):
    """t vectors in dimension W: v_k = M e_k plus small entries on a nested
    set of k+2 of the coordinates t+1..W, so v_1, v_2, v_3 have nnz 4, 5, 6.
    The large diagonal keeps the Gram matrix diagonally dominant for every p,
    so no generated file is degenerate by chance.  The nested supports fix
    the supports of the orthonormalized basis, and with them the cost of the
    explicit sum, for every seed."""
    tail = rng.sample(range(t + 1, W + 1), W - t)
    out = []
    for k in range(1, t + 1):
        big = rng.randint(60, 99) if exact else rng.uniform(60.0, 99.0)
        entries = [[k, big]] + [[i, rng.choice((-1, 1)) * (rng.randint(1, 3) if exact else rng.uniform(0.5, 3.0))]
                                for i in tail[:k + 2]]
        out.append(sorted(entries))
    return out


def _random_spec(rng, nnz, W, exact):
    return sorted([i, coeff(rng, exact) * (1 if exact else 3.0)] for i in rng.sample(range(1, W + 1), nnz))


def _line_problem(rng, p, exact, groups="a"):
    """A line L = span{u}, a plane P = span{u, w} and, for each group g,
    subspaces V<g>1 < V<g>2 < V<g>3 of dimension 1, 2, 3 in 8 coordinates."""
    vectors = {
        "u": _random_spec(rng, rng.randint(4, 6), 8, exact),
        "w": _random_spec(rng, rng.randint(4, 6), 8, exact),
    }
    subspaces = {"L": ["u"], "P": ["u", "w"]}
    for g in groups:
        names = [f"v{g}{k}" for k in (1, 2, 3)]
        vectors.update(zip(names, _dominant_basis(rng, 3, 8, exact)))
        for t in (1, 2, 3):
            subspaces[f"V{g}{t}"] = names[:t]
    return {"p": p, "mode": "exact" if exact else "float", "vectors": vectors, "subspaces": subspaces}


def parse_vectors(G, data):
    """SparseVectors of a problem dict, built by the benchmark for its checks."""
    exact = data.get("mode", "float") == "exact"
    out = {}
    for name, spec in data["vectors"].items():
        if spec and all(isinstance(e, list) for e in spec):
            entries = spec
        else:
            entries = [[i + 1, v] for i, v in enumerate(spec)]
        out[name] = G.SparseVector(
            (i, Fraction(str(v)) if exact else float(v)) for i, v in entries)
    return out


def cli_replay(G, rng, workdir):
    """Every CLI command on the bundled problems plus generated files."""
    root = Path(__file__).resolve().parent.parent
    files = {name: root / "problems" / f"{name}.json" for name, _, _ in BUNDLED}
    problems = {name: json.loads(path.read_text()) for name, path in files.items()}
    commands = [(name, cmd, code) for name, cmd, code in BUNDLED]

    generated = {
        "gen_l1_exact": (_line_problem(rng, 1, True, EXACT_GROUPS),
                         tuple(f"angle L V{g}3" for g in EXACT_GROUPS) + GENERATED),
        "gen_p1.5_float": (_line_problem(rng, 1.5, False), ("angle L Va3",) + GENERATED),
        "gen_p2_float": (_line_problem(rng, 2, False), ("angle L Va3", "angle P Va3") + GENERATED),
        "gen_g_nnz512": ({
            "p": 1, "mode": "exact",
            "vectors": {"x": _random_spec(rng, 512, 2048, True), "y": _random_spec(rng, 512, 2048, True)},
        }, ("g x y",)),
        # Lines against dimension 2 only: the explicit sum is defined for lp spaces only.
        "gen_oracle_taxicab": (_line_problem(rng, "oracle:taxicab", False),
                               ("g u w", "project u Va2", "angle L Va2", "orthonormalize Va2", "gram Va2")),
    }
    for name, (data, cmds) in generated.items():
        files[name] = Path(workdir) / f"{name}.json"
        files[name].write_text(json.dumps(data))
        problems[name] = data
        commands += [(name, cmd, 0) for cmd in cmds]
    files["gen_malformed"] = Path(workdir) / "gen_malformed.json"
    files["gen_malformed"].write_text(json.dumps({"p": 1, "mode": "exact", "vectors": {"u": [[1, "1/0"]]}}))
    problems["gen_malformed"] = None
    commands.append(("gen_malformed", "g u u", 2))

    vectors = {name: parse_vectors(G, data) for name, data in problems.items() if data is not None}
    deck = []
    for name, cmd, code in commands:
        verb, *args = cmd.split()
        argv = [verb, "--input", str(files[name]), *args]
        exact = problems[name] is None or problems[name].get("mode") == "exact"
        for as_json in (False, True):
            deck.append(_cli_task(G, argv + ["--json"] if as_json else argv, code, exact,
                                  problems[name], vectors.get(name), as_json))
    for argv, code in ((["paper-check"], 0), (["paper-check", "--json"], 0),
                       (["paper-check", "--strict", "--json"], 1)):
        deck.append(_cli_task(G, argv, code, True, None, None, "--json" in argv))
    rng.shuffle(deck)
    return deck


def run_cli(G, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = G.cli.main(argv)
    return code, out.getvalue()


def _cli_task(G, argv, expected, exact, problem, vectors, as_json):
    def check(r):
        code, stdout = r
        if code != expected:
            return False
        if not stdout:
            return code in (2, 3)   # errors are reported on stderr only
        if not as_json:
            return True
        try:
            report = json.loads(stdout)
        except ValueError:
            return False
        return _check_cli_report(G, argv, problem, vectors, report["outputs"])

    return Task(f"cli {' '.join(a for a in argv if a != '--input' and not a.endswith('.json'))}"
                f" {Path(argv[2]).stem if len(argv) > 2 else ''}", lambda: run_cli(G, argv), check, exact=exact)


def _check_cli_report(G, argv, problem, vectors, outputs):
    if problem is None:
        return True
    p = problem["p"]
    if isinstance(p, str):
        space = G.cli.DEMO_ORACLES[p.split(":", 1)[1]]
    else:
        space = G.LpSpace(p)
    exact = problem["mode"] == "exact"

    def scalar(s):
        return Fraction(s["exact"]) if exact else s["decimal"]

    verb, args = argv[0], [a for a in argv[3:] if a != "--json"]
    if verb == "angle" and "explicit_sum_cos_sq" in outputs:
        # cos_sq_explicit_sum(u, V) equals the projected-length ratio onto
        # the left g-orthonormalized basis of V.
        u = vectors[problem["subspaces"][args[0]][0]]
        basis = [vectors[n] for n in problem["subspaces"][args[1]]]
        starred = G.left_orthonormalize(basis, space)
        ratio = G.angle_line_subspace(u, G.Subspace(starred, space)).cos_sq_ratio
        return agree(scalar(outputs["explicit_sum_cos_sq"]), ratio, 1)
    if verb == "g" and p == 2:
        x, y = vectors[args[0]], vectors[args[1]]
        return close(outputs["g_xy"]["decimal"], dot(x, y), nscale(G, x, y, space))
    if verb == "g" and p == 1 and exact:
        # The definition through one-sided derivatives, from the same report.
        nx = sum(abs(v) for _, v in vectors[args[0]].items())
        taus = scalar(outputs["tau_plus"]) + scalar(outputs["tau_minus"])
        return Fraction(1, 2) * nx * taus == scalar(outputs["g_xy"])
    if verb == "project":
        y = vectors[args[0]]
        basis = [vectors[n] for n in problem["subspaces"][args[1]]]
        return all(agree(scalar(s), 0, nscale(G, b, y, space))
                   for s, b in zip(outputs["residual_orthogonality"], basis))
    return True


DECKS = {"wide-sparse": wide_sparse, "deep-basis": deep_basis, "cli-replay": cli_replay}
