"""Built-in replay of the worked examples from the source article.

Every check recomputes a published quantity with the exact-rational backend
and compares.  Two entries are WARN rather than PASS/FAIL: places where the
published text disagrees with exact evaluation of its own data.  The exact
values are treated as ground truth; the discrepancies are surfaced, never
reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import (
    angle_line_subspace,
    angle_plane_subspace,
    cos_sq_explicit_sum,
    lambda_functional,
    vector_angle,
)
from .gram import Subspace, gram, project
from .semi_inner import g_explicit
from .vectors import LpSpace, SparseVector, lp_norm

L1 = LpSpace(1)

# Final plane-vs-space value printed in the source article vs. the exact
# evaluation of the article's own intermediate quantities.
PUBLISHED_FINAL_COS_SQ = Fraction(36, 167)
EXACT_FINAL_COS_SQ = Fraction(36, 175)
FINAL_VALUE_NOTE = (
    "published as 36/167, but exact evaluation of the published "
    "intermediates (area ratio 576/2800) gives 36/175; the exact value is used"
)

PASS = "PASS"
WARN = "WARN"
FAIL = "FAIL"


@dataclass
class CheckResult:
    name: str
    expected: str
    computed: str
    status: str
    note: str = ""


def _vec(*coords) -> SparseVector:
    return SparseVector.from_dense([Fraction(c) for c in coords])


def _check(results, name, computed, expected) -> None:
    ok = computed == expected
    results.append(
        CheckResult(name, str(expected), str(computed), PASS if ok else FAIL)
    )


def _warn(results, name, computed, note) -> None:
    results.append(CheckResult(name, "(discrepancy)", str(computed), WARN, note))


def run_checks() -> list:
    """Run every built-in check; returns a list of CheckResult."""
    res = []

    # l1 norm of the line-vs-plane example vector
    u = _vec(1, 2, 1)
    _check(res, "l1 norm of (1,2,1)", lp_norm(u, 1), Fraction(4))

    # vector sum behind the triangle-inequality counterexample
    y = _vec(-2, 0)
    z = _vec(0, 2)
    _check(res, "(-2,0) + (0,2)", (y + z).to_dense(2), [Fraction(-2), Fraction(2)])

    # non-symmetry witness
    a = _vec(1, 1)
    b = _vec(-1, 2)
    _check(res, "g((-1,2),(1,1)) in l1", g_explicit(b, a, 1), Fraction(0))
    _check(res, "g((1,1),(-1,2)) in l1", g_explicit(a, b, 1), Fraction(2))
    ang = vector_angle(a, b, L1)
    _check(res, "angle((1,1),(-1,2)) is pi/2", ang.angle_rad, math.pi / 2)
    ang2 = vector_angle(b, a, L1)
    _check(res, "cos^2 angle((-1,2),(1,1)) = 1/9", ang2.cos_sq, Fraction(1, 9))

    # zero Gram determinant despite independence
    x1 = _vec(1, 2)
    x2 = _vec(2, 1)
    data = gram([x1, x2], L1)
    _check(res, "gram{(1,2),(2,1)} all entries 9",
           sorted({e for row in data.matrix for e in row}), [Fraction(9)])
    _check(res, "gram{(1,2),(2,1)} determinant", data.det, Fraction(0))

    # line vs coordinate plane: both computation paths
    V = Subspace([_vec(1), _vec(0, 1)], L1)
    line = angle_line_subspace(u, V)
    _check(res, "line-vs-plane cos^2 via projection", line.cos_sq, Fraction(9, 16))
    _check(res, "line-vs-plane cos^2 via explicit sum",
           cos_sq_explicit_sum(u, V), Fraction(9, 16))
    _check(res, "line-vs-plane angle = arccos(3/4)", line.angle_rad, math.acos(0.75))

    # area functional counterexample to the triangle inequality
    x = _vec(3, 1)
    _check(res, "|x| |y| |z| |y+z| in l1",
           [lp_norm(v, 1) for v in (x, y, z, y + z)],
           [Fraction(4), Fraction(2), Fraction(2), Fraction(4)])
    _check(res, "g(x,y) = -8", g_explicit(x, y, 1), Fraction(-8))
    _check(res, "g(x,z) = 8", g_explicit(x, z, 1), Fraction(8))
    _check(res, "g(z,x) = 2", g_explicit(z, x, 1), Fraction(2))
    _check(res, "g(x,y+z) = 0", g_explicit(x, y + z, 1), Fraction(0))
    _check(res, "g(y+z,x) = -8", g_explicit(y + z, x, 1), Fraction(-8))
    _warn(res, "g(y,z) relabel",
          f"g(y,z)={g_explicit(y, z, 1)}, g(y,x)={g_explicit(y, x, 1)}",
          "published table lists -6 for the pair (y,z); exact g(y,z)=0, "
          "while g(y,x)=-6 is the value the area computation needs")
    lam_xy = lambda_functional(x, y, L1)
    lam_xz = lambda_functional(x, z, L1)
    lam_sum = lambda_functional(x, y + z, L1)
    _check(res, "area(x,y) = 4", lam_xy.value, Fraction(4))
    _check(res, "area(x,z)^2 = 48", lam_xz.value_sq, Fraction(48))
    _check(res, "area(x,y+z) = 16", lam_sum.value, Fraction(16))
    _check(res, "triangle inequality fails for the area functional",
           float(lam_sum.value) > float(lam_xy.value) + float(lam_xz.value), True)

    # plane vs 3-dimensional coordinate subspace
    u1 = _vec(1, 1, 2, 3)
    u2 = _vec(2, 1, -3, 2)
    W = Subspace([_vec(1), _vec(0, 1), _vec(0, 0, 1)], L1)
    _check(res, "|u1| = 7", lp_norm(u1, 1), Fraction(7))
    _check(res, "|u2| = 8", lp_norm(u2, 1), Fraction(8))
    _check(res, "g(u1,u2) = 14", g_explicit(u1, u2, 1), Fraction(14))
    _check(res, "g(u2,u1) = 24", g_explicit(u2, u1, 1), Fraction(24))
    p1 = project(u1, W)
    p2 = project(u2, W)
    _check(res, "u1 projected = (1,1,2,0)", p1.projected, _vec(1, 1, 2))
    _check(res, "u2 projected = (2,1,-3,0)", p2.projected, _vec(2, 1, -3))
    _check(res, "|u1 projected| = 4", lp_norm(p1.projected, 1), Fraction(4))
    _check(res, "|u2 projected| = 6", lp_norm(p2.projected, 1), Fraction(6))
    _check(res, "g of the projected pair vanishes both ways",
           [g_explicit(p1.projected, p2.projected, 1),
            g_explicit(p2.projected, p1.projected, 1)],
           [Fraction(0), Fraction(0)])
    U = Subspace([u1, u2], L1)
    plane = angle_plane_subspace(U, W)
    _check(res, "plane-vs-space cos^2 = 36/175", plane.cos_sq, EXACT_FINAL_COS_SQ)
    _warn(res, "plane-vs-space published value", str(plane.cos_sq), FINAL_VALUE_NOTE)

    return res


def summarize(results) -> dict:
    """Counts plus the process exit status for a batch of check results."""
    statuses = [r.status for r in results]
    fails = statuses.count(FAIL)
    return {
        "total": len(results),
        "pass": statuses.count(PASS),
        "warn": statuses.count(WARN),
        "fail": fails,
        "exit_status": 1 if fails else 0,
    }
