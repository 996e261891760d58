"""Command-line front end.

A problem file is a single JSON document describing the ambient space, the
scalar mode, named vectors and named subspaces::

    {
      "p": 1,                  // or "oracle:max"
      "mode": "exact",         // or "float"
      "vectors": {
        "u":  [1, 2, 1],       // dense, slot 1 = coordinate 1
        "e9": [[9, "1/2"]]     // sparse [index, value] pairs
      },
      "subspaces": {"V": ["e9"]}
    }

Exact mode requires p in {1, 2} and rational coordinates (integers, finite
decimals, or "a/b" strings).  Commands: g, angle, project, orthonormalize,
gram, paper-check.  Exit codes: 0 success, 1 check failure under --strict,
2 input error, 3 mathematical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Dict

from . import checks
from .angles import angle_line_subspace, angle_plane_subspace, cos_sq_explicit_sum
from .errors import (
    BackendError,
    DegenerateSubspaceError,
    DependenceError,
    GAngleError,
    NumericalRangeError,
    ProblemFileError,
    ZeroVectorError,
)
from .gram import Subspace, certifies_independence, left_orthonormalize, project
from .semi_inner import _g_from_pair, g, tau
from .vectors import LpSpace, OracleSpace, Space, SparseVector, norm

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

# Exit code of each error main reports; the nearest class in the raised
# error's method resolution order decides.
_EXIT_CODES = {
    DegenerateSubspaceError: EXIT_DEGENERATE,
    DependenceError: EXIT_DEGENERATE,
    GAngleError: EXIT_INPUT,
    ValueError: EXIT_INPUT,
}

# Built-in demo norms selectable as "oracle:<name>" in a problem file.
DEMO_ORACLES = {
    "max": OracleSpace(lambda x: max((abs(v) for _, v in x), default=0.0), "max"),
    "taxicab": OracleSpace(lambda x: sum(abs(v) for _, v in x), "taxicab"),
}


@dataclass
class Problem:
    space: Space
    vectors: Dict[str, SparseVector]
    subspaces: Dict[str, Subspace]


def _parse_coeff(value, mode: str):
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError("a coordinate is a number or an 'a/b' string")
        if mode == "exact":  # an int is exact as it is
            return value if isinstance(value, int) else Fraction(str(value))
        # float() raises OverflowError for an int or "a/b" beyond the float range.
        number = float(Fraction(value)) if isinstance(value, str) else float(value)
        if not math.isfinite(number):
            raise ValueError("coordinates must be finite")
        return number
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ProblemFileError(f"bad coordinate {value!r}: {exc}") from None


def _parse_vector(name: str, spec, mode: str) -> SparseVector:
    if not isinstance(spec, list):
        raise ProblemFileError(f"vector {name!r} must be an array")
    if spec and all(isinstance(e, list) for e in spec):
        pairs = []
        for e in spec:
            if len(e) != 2 or not isinstance(e[0], int):
                raise ProblemFileError(
                    f"vector {name!r}: sparse entries are [index, value] pairs"
                )
            pairs.append((e[0], _parse_coeff(e[1], mode)))
        try:
            return SparseVector(pairs)
        except (ValueError, BackendError) as exc:
            raise ProblemFileError(f"vector {name!r}: {exc}") from None
    return SparseVector.from_dense([_parse_coeff(e, mode) for e in spec])


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")

    mode = data.get("mode", "float")
    if mode not in ("exact", "float"):
        raise ProblemFileError(f"mode must be 'exact' or 'float', got {mode!r}")

    p_field = data.get("p")
    if isinstance(p_field, str) and p_field.startswith("oracle:"):
        name = p_field.split(":", 1)[1]
        if name not in DEMO_ORACLES:
            raise ProblemFileError(
                f"unknown demo norm {name!r}; available: {sorted(DEMO_ORACLES)}"
            )
        if mode == "exact":
            raise ProblemFileError("norm oracles require float mode")
        space: Space = DEMO_ORACLES[name]
    elif isinstance(p_field, (int, float)) and not isinstance(p_field, bool):
        if not 1 <= p_field <= sys.float_info.max:
            raise ProblemFileError(f"p must be a finite number >= 1, got {p_field}")
        if mode == "exact" and p_field not in (1, 2):
            raise ProblemFileError("exact mode requires p in {1, 2}")
        space = LpSpace(int(p_field) if float(p_field).is_integer() else float(p_field))
    else:
        raise ProblemFileError("field 'p' must be a number >= 1 or 'oracle:<name>'")

    fields = {f: {} if data.get(f) is None else data[f] for f in ("vectors", "subspaces")}
    for f, value in fields.items():
        if not isinstance(value, dict):
            raise ProblemFileError(f"field {f!r} must be an object of named entries")

    vectors = {}
    for name, spec in fields["vectors"].items():
        vectors[name] = _parse_vector(name, spec, mode)

    subspaces = {}
    for name, members in fields["subspaces"].items():
        if not isinstance(members, list) or not members:
            raise ProblemFileError(f"subspace {name!r} must list vector names")
        basis = []
        for member in members:
            if not isinstance(member, str) or member not in vectors:
                raise ProblemFileError(
                    f"subspace {name!r} references undefined vector {member!r}"
                )
            basis.append(vectors[member])
        try:
            subspaces[name] = Subspace(basis, space)
        except ZeroVectorError as exc:
            raise ProblemFileError(f"subspace {name!r}: {exc}") from None

    return Problem(space, vectors, subspaces)


# -- rendering --------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _scalar_out(value, field: str) -> dict:
    """The scalar ``field`` as both an exact fraction string (when exact) and
    a decimal.  An exact value beyond the float range has no decimal and
    raises NumericalRangeError."""
    try:
        decimal = float(value)
    except OverflowError:
        raise NumericalRangeError(f"{field} is beyond the float range of its decimal form") from None
    return {"exact": str(value) if isinstance(value, Fraction) else None, "decimal": decimal}


def _vector_out(vec: SparseVector) -> dict:
    return {
        "dense": [_fmt(v) for v in vec.to_dense()],
        "entries": [[i, _fmt(v)] for i, v in vec],
    }


def _get(problem: Problem, positional: str, name: str):
    kind, table = ("subspace", problem.subspaces) if positional.isupper() else ("vector", problem.vectors)
    if name not in table:
        raise ProblemFileError(f"unknown {kind} {name!r}")
    return table[name]


# -- commands ---------------------------------------------------------------
#
# Each handler takes the problem and the objects its positionals name, and
# returns (outputs, warnings, exit status); main wraps them in the report.


def cmd_g(problem: Problem, x: SparseVector, y: SparseVector) -> tuple:
    """g(x, y), g(y, x) and the one-sided derivatives tau+- of t -> |x + t*y|
    at 0, evaluated once, on x and y (on their float copies where exact
    quotients are unavailable, exact p = 2).  In an lp space the report
    also gives the distance between g(x, y) and the definition
    |x| * (tau+ + tau-) / 2 from that pair: exact against exact on an exact
    l1 file, where it is 0."""
    space = problem.space
    warnings = []
    gxy = g(x, y, space)
    gyx = g(y, x, space)
    try:
        pair = tau(x, y, space)
    except BackendError:
        x, y = x.to_float(), y.to_float()
        pair = tau(x, y, space)
        warnings.append("tau computed in float mode (exact quotients unavailable)")
    delta = None
    if isinstance(space, LpSpace):
        delta = float(abs(gxy - _g_from_pair(pair, norm(x, space))))
    outputs = {
        "g_xy": _scalar_out(gxy, "g_xy"),
        "g_yx": _scalar_out(gyx, "g_yx"),
        "tau_plus": _scalar_out(pair.tau_plus, "tau_plus"),
        "tau_minus": _scalar_out(pair.tau_minus, "tau_minus"),
        "definition_crosscheck_delta": delta,
    }
    return outputs, warnings, EXIT_OK


def cmd_angle(problem: Problem, U: Subspace, V: Subspace) -> tuple:
    warnings = []
    outputs = {}
    if U.dim == 1:
        result = angle_line_subspace(U.basis[0], V)
        outputs["cos_sq_ratio"] = _scalar_out(result.cos_sq_ratio, "cos_sq_ratio")
        if result.ratio_gap is not None and result.ratio_gap > 1e-8:
            warnings.append(
                f"projection formula and length-ratio disagree by {result.ratio_gap:.3g}"
            )
        if isinstance(problem.space, LpSpace):
            try:
                explicit = cos_sq_explicit_sum(U.basis[0], V)
            except GAngleError as exc:
                warnings.append(f"explicit sum unavailable ({type(exc).__name__}: {exc})")
            else:
                outputs["explicit_sum_cos_sq"] = _scalar_out(explicit, "explicit_sum_cos_sq")
                gap = abs(float(explicit) - float(result.cos_sq_ratio))
                if gap > 1e-8:
                    warnings.append(
                        "explicit-sum value differs from the given-basis projection "
                        f"by {gap:.3g} (the projection depends on the basis of V "
                        "unless p = 2)"
                    )
    elif U.dim == 2:
        result = angle_plane_subspace(U, V)
        if result.cos_sq == checks.EXACT_FINAL_COS_SQ:
            warnings.append("NOTE: " + checks.FINAL_VALUE_NOTE)
    else:
        raise ProblemFileError(
            f"angles for subspaces of dimension {U.dim} >= 3 are undefined in this theory"
        )
    outputs.update(
        {
            "cos_sq": _scalar_out(result.cos_sq, "cos_sq"),
            "angle_rad": result.angle_rad,
            "angle_deg": math.degrees(result.angle_rad),
            "path": result.path,
        }
    )
    return outputs, warnings, EXIT_OK


def cmd_project(problem: Problem, y: SparseVector, S: Subspace) -> tuple:
    pr = project(y, S)
    residual_checks = [_scalar_out(g(xi, pr.residual, problem.space), "residual_orthogonality")
                       for xi in S.basis]
    outputs = {
        "coefficients": [_scalar_out(c, "coefficients") for c in pr.coefficients],
        "projected": _vector_out(pr.projected),
        "residual": _vector_out(pr.residual),
        "residual_orthogonality": residual_checks,
    }
    return outputs, [], EXIT_OK


def cmd_orthonormalize(problem: Problem, S: Subspace) -> tuple:
    out = left_orthonormalize(S.basis, problem.space)
    return {"vectors": [_vector_out(v) for v in out]}, [], EXIT_OK


def cmd_gram(problem: Problem, S: Subspace) -> tuple:
    data = S.gram()
    independent = certifies_independence(data)
    outputs = {
        "matrix": [[_scalar_out(e, "matrix") for e in row] for row in data.matrix],
        "det": _scalar_out(data.det, "det"),
        "certifies_independence": independent,
    }
    if independent:
        return outputs, [], EXIT_OK
    warning = "Gram determinant is zero; projections onto this basis are undefined"
    return outputs, [warning], EXIT_DEGENERATE


def cmd_paper_check(strict: bool) -> tuple:
    results = checks.run_checks()
    if strict:  # strict mode promotes every WARN to a failure
        results = [replace(r, status=checks.FAIL) if r.status == checks.WARN else r
                   for r in results]
    summary = checks.summarize(results)
    return {"checks": [asdict(r) for r in results], "summary": summary}, [], summary["exit_status"]


# -- text rendering ---------------------------------------------------------


def _print_report(report: dict) -> None:
    print(f"# {report['command']}")
    outputs = report["outputs"]
    if "checks" in outputs:
        width = max(len(r["name"]) for r in outputs["checks"])
        for r in outputs["checks"]:
            line = f"{r['status']:4}  {r['name']:<{width}}  expected={r['expected']}  computed={r['computed']}"
            if r["note"]:
                line += f"  [{r['note']}]"
            print(line)
        s = outputs["summary"]
        print(f"{s['pass']} pass, {s['warn']} warn, {s['fail']} fail")
    else:
        for key, value in outputs.items():
            if isinstance(value, dict) and "decimal" in value:
                shown = value["exact"] if value["exact"] is not None else _fmt(value["decimal"])
                extra = f" ({_fmt(value['decimal'])})" if value["exact"] is not None else ""
                print(f"{key} = {shown}{extra}")
            elif isinstance(value, dict) and "dense" in value:
                print(f"{key} = ({', '.join(value['dense'])}, 0, ...)")
            elif isinstance(value, list):
                print(f"{key} = {json.dumps(value)}")
            else:
                print(f"{key} = {value}")
    for warning in report["warnings"]:
        print(f"warning: {warning}")


# -- entry point ------------------------------------------------------------


# Subcommand -> (handler, positional names, help).  Handlers are named, not
# bound, so that main calls whatever cli.cmd_* is bound to when it runs.  Only
# paper-check (positionals None) reads no file; capitals name subspaces.
_COMMANDS = {
    "g": ("cmd_g", ("x", "y"), "semi-inner product of two named vectors"),
    "angle": ("cmd_angle", ("U", "V"), "g-angle between two named subspaces"),
    "project": ("cmd_project", ("y", "S"), "g-orthogonal projection of a vector onto a subspace"),
    "orthonormalize": ("cmd_orthonormalize", ("S",), "left g-orthonormalize a subspace basis"),
    "gram": ("cmd_gram", ("S",), "Gram matrix and determinant of a subspace basis"),
    "paper-check": ("cmd_paper_check", None, "replay the published worked examples"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gangle",
        description="semi-inner products and g-angles between subspaces of normed sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if positionals is None:
            p.add_argument("--strict", action="store_true", help="treat WARN entries as failures")
        else:
            p.add_argument("--input", "-i", required=True, help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for positional in positionals or ():
            p.add_argument(positional)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler_name, positionals, _ = _COMMANDS[args.command]
    handler = globals()[handler_name]
    names = [getattr(args, a) for a in positionals or ()]
    try:
        if positionals is None:
            outputs, warnings, status = handler(strict=args.strict)
        else:
            problem = load_problem(args.input)
            objects = [_get(problem, a, name) for a, name in zip(positionals, names)]
            outputs, warnings, status = handler(problem, *objects)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)

    if positionals is None and args.strict:
        names.append("--strict")
    command = " ".join([args.command, *names])
    report = {"command": command, "outputs": outputs, "warnings": warnings, "status": status}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report)
    return status
