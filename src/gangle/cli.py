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
    ProblemFileError,
    ZeroVectorError,
)
from .gram import Subspace, left_orthonormalize, project
from .semi_inner import g, g_from_norm, tau
from .vectors import LpSpace, OracleSpace, Space, SparseVector

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
        if mode == "exact":
            return Fraction(value if isinstance(value, int) else str(value))
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

    vectors = {}
    for name, spec in (data.get("vectors") or {}).items():
        vectors[name] = _parse_vector(name, spec, mode)

    subspaces = {}
    for name, members in (data.get("subspaces") or {}).items():
        if not isinstance(members, list) or not members:
            raise ProblemFileError(f"subspace {name!r} must list vector names")
        basis = []
        for member in members:
            if member not in vectors:
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


def _scalar_out(value) -> dict:
    """A scalar as both an exact fraction string (when exact) and a decimal."""
    if isinstance(value, Fraction):
        return {"exact": str(value), "decimal": float(value)}
    return {"exact": None, "decimal": float(value)}


def _vector_out(vec: SparseVector) -> dict:
    return {
        "dense": [_fmt(v) for v in vec.to_dense()],
        "entries": [[i, _fmt(v)] for i, v in vec],
    }


def _get(mapping, kind, name):
    if name not in mapping:
        raise ProblemFileError(f"unknown {kind} {name!r}")
    return mapping[name]


# -- commands ---------------------------------------------------------------


def cmd_g(problem: Problem, x_name: str, y_name: str) -> dict:
    x = _get(problem.vectors, "vector", x_name)
    y = _get(problem.vectors, "vector", y_name)
    space = problem.space
    warnings = []
    gxy = g(x, y, space)
    gyx = g(y, x, space)
    try:
        pair = tau(x, y, space)
    except BackendError:
        pair = tau(x.to_float(), y.to_float(), _float_space(space))
        warnings.append("tau computed in float mode (exact quotients unavailable)")
    delta = None
    if isinstance(space, LpSpace):
        cross = g_from_norm(x.to_float(), y.to_float(), _float_space(space))
        delta = abs(float(gxy) - float(cross))
    return {
        "command": f"g {x_name} {y_name}",
        "outputs": {
            "g_xy": _scalar_out(gxy),
            "g_yx": _scalar_out(gyx),
            "tau_plus": _scalar_out(pair.tau_plus),
            "tau_minus": _scalar_out(pair.tau_minus),
            "definition_crosscheck_delta": delta,
        },
        "warnings": warnings,
        "status": EXIT_OK,
    }


def _float_space(space: Space) -> Space:
    return LpSpace(float(space.p)) if isinstance(space, LpSpace) else space


def cmd_angle(problem: Problem, u_name: str, v_name: str) -> dict:
    U = _get(problem.subspaces, "subspace", u_name)
    V = _get(problem.subspaces, "subspace", v_name)
    warnings = []
    outputs = {}
    if U.dim == 1:
        result = angle_line_subspace(U.basis[0], V)
        outputs["cos_sq_ratio"] = _scalar_out(result.cos_sq_ratio)
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
                outputs["explicit_sum_cos_sq"] = _scalar_out(explicit)
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
            "cos_sq": _scalar_out(result.cos_sq),
            "angle_rad": result.angle_rad,
            "angle_deg": math.degrees(result.angle_rad),
            "path": result.path,
        }
    )
    return {
        "command": f"angle {u_name} {v_name}",
        "outputs": outputs,
        "warnings": warnings,
        "status": EXIT_OK,
    }


def cmd_project(problem: Problem, y_name: str, s_name: str) -> dict:
    y = _get(problem.vectors, "vector", y_name)
    S = _get(problem.subspaces, "subspace", s_name)
    pr = project(y, S)
    residual_checks = [_scalar_out(g(xi, pr.residual, problem.space)) for xi in S.basis]
    return {
        "command": f"project {y_name} {s_name}",
        "outputs": {
            "coefficients": [_scalar_out(c) for c in pr.coefficients],
            "projected": _vector_out(pr.projected),
            "residual": _vector_out(pr.residual),
            "residual_orthogonality": residual_checks,
        },
        "warnings": [],
        "status": EXIT_OK,
    }


def cmd_orthonormalize(problem: Problem, s_name: str) -> dict:
    S = _get(problem.subspaces, "subspace", s_name)
    out = left_orthonormalize(S.basis, problem.space)
    return {
        "command": f"orthonormalize {s_name}",
        "outputs": {"vectors": [_vector_out(v) for v in out]},
        "warnings": [],
        "status": EXIT_OK,
    }


def cmd_gram(problem: Problem, s_name: str) -> dict:
    S = _get(problem.subspaces, "subspace", s_name)
    data = S.gram()
    degenerate = data.is_degenerate
    return {
        "command": f"gram {s_name}",
        "outputs": {
            "matrix": [[_scalar_out(e) for e in row] for row in data.matrix],
            "det": _scalar_out(data.det),
            "certifies_independence": not degenerate,
        },
        "warnings": ["Gram determinant is zero; projections onto this basis are undefined"]
        if degenerate
        else [],
        "status": EXIT_DEGENERATE if degenerate else EXIT_OK,
    }


def cmd_paper_check(strict: bool) -> dict:
    results = checks.run_checks()
    if strict:  # strict mode promotes every WARN to a failure
        results = [replace(r, status=checks.FAIL) if r.status == checks.WARN else r
                   for r in results]
    summary = checks.summarize(results)
    return {
        "command": "paper-check" + (" --strict" if strict else ""),
        "outputs": {"checks": [asdict(r) for r in results], "summary": summary},
        "warnings": [],
        "status": summary["exit_status"],
    }


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
# bound, so that main calls whatever cli.cmd_* is bound to when it runs.
# Every command but paper-check (positionals None) reads a problem file.
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
    try:
        if positionals is None:
            report = handler(strict=args.strict)
        else:
            report = handler(load_problem(args.input), *(getattr(args, a) for a in positionals))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report)
    return report["status"]


def entry() -> None:
    raise SystemExit(main())
