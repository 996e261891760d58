import importlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gangle import (
    BackendError,
    ConsistencyError,
    DegenerateSubspaceError,
    DependenceError,
    EstimationFailureError,
    GAngleError,
    ProblemFileError,
    ZeroVectorError,
    cli,
    semi_inner,
)

PKG_ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = PKG_ROOT / "problems"
PYPROJECT = PKG_ROOT / "pyproject.toml"


def run_cli(*args, expect=0):
    # The subprocess imports gangle from this checkout's src/ whether or not
    # the caller set PYTHONPATH.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gangle", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=env,
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def run_json(*args, expect=0):
    proc = run_cli(*args, "--json", expect=expect)
    return json.loads(proc.stdout)


def problem(name):
    return str(PROBLEMS / name)


# -- g ----------------------------------------------------------------------


def test_g_nonsymmetry_text_and_json():
    proc = run_cli("g", "-i", problem("nonsymmetry_l1.json"), "x", "y")
    assert "g_xy = 2" in proc.stdout
    assert "g_yx = 0" in proc.stdout

    report = run_json("g", "-i", problem("nonsymmetry_l1.json"), "x", "y")
    assert report["outputs"]["g_xy"]["exact"] == "2"
    assert report["outputs"]["g_yx"]["exact"] == "0"
    assert report["outputs"]["g_xy"]["decimal"] == 2.0
    assert report["outputs"]["definition_crosscheck_delta"] <= 1e-8


def test_g_unknown_vector_is_input_error():
    proc = run_cli("g", "-i", problem("nonsymmetry_l1.json"), "x", "nope", expect=2)
    assert proc.stderr == "error: unknown vector 'nope'\n"
    assert proc.stdout == ""


# Each file command with one unknown name in each of its positionals, on
# line_vs_plane_l1.json (vectors u, e1, e2; subspaces U, V): a capital
# positional is looked up among the subspaces, any other among the vectors.
UNKNOWN_NAMES = [
    ("g", 0, ["q", "e1"], "unknown vector 'q'"),
    ("g", 1, ["u", "q"], "unknown vector 'q'"),
    ("g", 1, ["u", "V"], "unknown vector 'V'"),
    ("angle", 0, ["Q", "V"], "unknown subspace 'Q'"),
    ("angle", 1, ["U", "Q"], "unknown subspace 'Q'"),
    ("project", 0, ["q", "V"], "unknown vector 'q'"),
    ("project", 1, ["u", "Q"], "unknown subspace 'Q'"),
    ("orthonormalize", 0, ["Q"], "unknown subspace 'Q'"),
    ("gram", 0, ["Q"], "unknown subspace 'Q'"),
    ("gram", 0, ["u"], "unknown subspace 'u'"),
]


def test_the_unknown_names_cover_every_positional_of_every_file_command():
    slots = {(c, i) for c, (_, positionals, _) in cli._COMMANDS.items() for i in range(len(positionals or ()))}
    assert slots == {(c, i) for c, i, _, _ in UNKNOWN_NAMES}


@pytest.mark.parametrize(
    "command, slot, names, message", UNKNOWN_NAMES, ids=[f"{c}-{' '.join(n)}" for c, _, n, _ in UNKNOWN_NAMES]
)
def test_an_unknown_name_in_any_positional_is_input_error(capsys, command, slot, names, message):
    assert cli.main([command, "-i", problem("line_vs_plane_l1.json"), *names]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, names",
    [("g", ["u", "e1"]), ("angle", ["U", "V"]), ("project", ["u", "V"]), ("orthonormalize", ["V"]), ("gram", ["V"])],
)
def test_a_handler_called_on_loaded_objects_gives_the_report_of_main(capsys, command, names):
    """A handler takes the problem and the objects its positionals name;
    called directly, it returns the outputs, warnings and status main
    reports for the names."""
    path = problem("line_vs_plane_l1.json")
    loaded = cli.load_problem(path)
    objects = [loaded.subspaces[n] if n.isupper() else loaded.vectors[n] for n in names]
    outputs, warnings, status = getattr(cli, cli._COMMANDS[command][0])(loaded, *objects)
    assert cli.main([command, "-i", path, *names, "--json"]) == status
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"] == json.loads(json.dumps(outputs))
    assert (report["warnings"], report["status"]) == (warnings, status)


def test_g_missing_file_is_input_error():
    run_cli("g", "-i", "no-such-file.json", "x", "y", expect=2)


@pytest.mark.parametrize(
    "error, code",
    [
        (ProblemFileError, 2),
        (BackendError, 2),
        (ZeroVectorError, 2),
        (ValueError, 2),
        (EstimationFailureError, 2),
        (ConsistencyError, 2),
        (GAngleError, 2),
        (DegenerateSubspaceError, 3),
        (DependenceError, 3),
    ],
)
def test_error_exit_codes(monkeypatch, capsys, error, code):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_g", fail)
    assert cli.main(["g", "-i", problem("nonsymmetry_l1.json"), "x", "y"]) == code
    assert "error: boom" in capsys.readouterr().err


# The JSON tokens NaN and Infinity are not standard JSON, but Python's json
# module reads them; 1e999 is standard JSON and reads as inf.
@pytest.mark.parametrize(
    "coordinate",
    ["NaN", "Infinity", "-Infinity", "1e999", '"1e999"', str(10 ** 400)],
    ids=["nan", "inf", "-inf", "1e999", "string-1e999", "int-1e400"],
)
def test_non_finite_float_coordinate_is_input_error(tmp_path, coordinate):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"p": 1.5, "mode": "float", "vectors": {"x": [1.0, %s], "y": [1.0]}}' % coordinate
    )
    proc = run_cli("g", "-i", str(path), "x", "y", expect=2)
    assert "bad coordinate" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "p", ["Infinity", "1e999", "NaN", str(10 ** 400)], ids=["inf", "1e999", "nan", "int-1e400"]
)
def test_non_finite_p_is_input_error(tmp_path, p):
    path = tmp_path / "bad.json"
    path.write_text('{"p": %s, "mode": "float", "vectors": {"x": [1.0]}}' % p)
    proc = run_cli("g", "-i", str(path), "x", "x", expect=2)
    assert "p must be" in proc.stderr


@pytest.mark.parametrize(
    "document",
    [
        {"p": 1, "vectors": [1, 2]},
        {"p": 1, "vectors": {"a": [1]}, "subspaces": [["a"]]},
        {"p": 1, "vectors": {"a": [1]}, "subspaces": {"S": [["a"]]}},
    ],
    ids=["vectors-array", "subspaces-array", "member-array"],
)
def test_misshapen_vectors_or_subspaces_are_input_errors(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert cli.main(["gram", "-i", str(path), "S"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Any JSON value; each field also draws, three times in four, values of the
# shape a problem file gives it, so that drawn files get past p and mode.
KEYS = st.sampled_from(["a", "b", "S"])
NAMES = KEYS | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=12,
)


def _mostly(shaped):
    return st.sampled_from([shaped] * 3 + [JSON_VALUES]).flatmap(lambda s: s)


COORDINATES = _mostly(st.integers(-3, 3) | st.sampled_from(["1/2", 0.5]))
SPARSE_ENTRIES = st.tuples(_mostly(st.integers(1, 4)), COORDINATES).map(list)
VECTOR_SPECS = st.lists(COORDINATES, max_size=3) | st.lists(_mostly(SPARSE_ENTRIES), max_size=3)
PROBLEM_FIELDS = {
    "p": _mostly(st.sampled_from([1, 2, 1.5, "oracle:max"])),
    "mode": _mostly(st.sampled_from(["exact", "float"])),
    "vectors": _mostly(st.dictionaries(KEYS, _mostly(VECTOR_SPECS), max_size=3)),
    "subspaces": _mostly(st.dictionaries(KEYS, st.lists(_mostly(KEYS), max_size=3), max_size=2)),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=st.fixed_dictionaries(PROBLEM_FIELDS))
def test_load_problem_returns_a_problem_or_raises_problem_file_error(tmp_path, document):
    path = tmp_path / "drawn.json"
    path.write_text(json.dumps(document))
    try:
        assert isinstance(cli.load_problem(str(path)), cli.Problem)
    except ProblemFileError:
        pass


def test_a_float_norm_beyond_the_float_range_is_input_error(tmp_path, capsys):
    # NumericalRangeError has no exit code of its own yet; the GAngleError
    # fallback maps it to 2.  |x|_3 = 2^(1/3) * 1.7e308 is beyond the range.
    path = tmp_path / "huge.json"
    path.write_text('{"p": 3, "mode": "float", "vectors": {"x": [1.7e308, 1.7e308], "y": [1.0]}}')
    assert cli.main(["g", "-i", str(path), "x", "y"]) == 2
    assert capsys.readouterr().err == "error: the 3-norm of this vector overflows the float range\n"
    # |(1e150, 1)|_3 and g are finite, but tau's powers |x_i + t*y_i|^3 are not
    path.write_text('{"p": 3, "mode": "float", "vectors": {"x": [1e150, 1.0], "y": [1.0]}}')
    assert cli.main(["g", "-i", str(path), "x", "y"]) == 2
    assert "beyond the float range" in capsys.readouterr().err


def test_an_exact_coordinate_beyond_the_float_range_is_input_error(tmp_path, capsys):
    # exact g and tau succeed; the decimal form of g(x, y) cannot hold 1e400
    path = tmp_path / "huge.json"
    path.write_text('{"p": 1, "mode": "exact", "vectors": {"x": ["1e400", 1], "y": [1, 2]}}')
    assert cli.main(["g", "-i", str(path), "x", "y"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args, field",
    [(["gram", "X"], "matrix"), (["project", "x", "Y"], "coefficients"), (["g", "x", "y"], "g_xy")],
)
def test_an_exact_report_value_beyond_the_float_range_is_input_error(tmp_path, capsys, args, field):
    # g(x, x) = 1e800 and the coefficient of y in x are exact; their decimal
    # forms are not floats
    path = tmp_path / "huge.json"
    path.write_text(
        '{"p": 1, "mode": "exact", "vectors": {"x": ["1e400", 1], "y": [1, 2]},'
        ' "subspaces": {"X": ["x"], "Y": ["y"]}}'
    )
    assert cli.main([args[0], "-i", str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert "0" * 50 not in err  # the value itself is not printed


@pytest.mark.parametrize(
    "name, spec, calls",
    [
        ("exact-l1", '"p": 1, "mode": "exact"', ["pair"]),
        ("float-p1.5", '"p": 1.5, "mode": "float"', ["pair"]),
        ("exact-l2", '"p": 2, "mode": "exact"', ["BackendError", "pair"]),
    ],
)
def test_g_evaluates_tau_once_and_checks_the_pair_it_prints(monkeypatch, tmp_path, name, spec, calls):
    """One tau pair per report, on float copies only after the exact
    quotients are refused, and no g_from_norm: the cross-check is
    |g(x, y) - |x| * (tau+ + tau-) / 2| from the printed pair."""
    seen = []
    tau = semi_inner.tau

    def counted_tau(x, y, space):
        try:
            pair = tau(x, y, space)
        except GAngleError as exc:
            seen.append(type(exc).__name__)
            raise
        seen.append("pair")
        return pair

    def forbidden(*args):
        raise AssertionError("cmd_g called g_from_norm")

    for module in (cli, semi_inner):
        monkeypatch.setattr(module, "tau", counted_tau)
    monkeypatch.setattr(semi_inner, "g_from_norm", forbidden)
    path = tmp_path / f"{name}.json"
    path.write_text('{%s, "vectors": {"x": [3, -1, "1/2"], "y": [1, 2, -4]}}' % spec)
    problem = cli.load_problem(str(path))
    report = cli.cmd_g(problem, problem.vectors["x"], problem.vectors["y"])[0]
    assert seen == calls
    assert not hasattr(cli, "g_from_norm")
    if name == "exact-l1":  # exact against exact
        taus = Fraction(report["tau_plus"]["exact"]) + Fraction(report["tau_minus"]["exact"])
        assert Fraction(report["g_xy"]["exact"]) == Fraction(9, 2) * taus / 2
        assert report["definition_crosscheck_delta"] == 0.0
    else:
        assert report["definition_crosscheck_delta"] <= 1e-9


def test_an_angle_whose_squared_norm_overflows_is_input_error(tmp_path, capsys):
    # |x| = 1e200 is finite at p = 1.5, its square is not
    path = tmp_path / "huge.json"
    path.write_text(
        '{"p": 1.5, "mode": "float", "vectors": {"x": [1e200], "y": [1.0, 1.0]},'
        ' "subspaces": {"U": ["x"], "V": ["y"]}}'
    )
    assert cli.main(["angle", "-i", str(path), "U", "V"]) == 2
    assert "squared norm of this vector overflows" in capsys.readouterr().err


# -- angle ------------------------------------------------------------------


def test_angle_line_vs_plane():
    report = run_json("angle", "-i", problem("line_vs_plane_l1.json"), "U", "V")
    out = report["outputs"]
    assert out["cos_sq"]["exact"] == "9/16"
    assert out["explicit_sum_cos_sq"]["exact"] == "9/16"
    assert out["path"] == "dim1-projection"
    assert out["angle_rad"] == pytest.approx(math.acos(0.75))
    assert report["warnings"] == []


def test_angle_plane_vs_space_reports_published_discrepancy_note():
    report = run_json("angle", "-i", problem("plane_vs_space_l1.json"), "U", "V")
    out = report["outputs"]
    assert out["cos_sq"]["exact"] == "36/175"
    assert out["path"] == "dim2-lambda"
    assert any("NOTE" in w for w in report["warnings"])


def test_angle_exact_l2_with_an_irrational_norm(tmp_path):
    # |u| = sqrt(2) is irrational, cos^2 = 1/2 is not
    data = {
        "p": 2,
        "mode": "exact",
        "vectors": {"u": [1, 1, 0], "e1": [1]},
        "subspaces": {"U": ["u"], "V": ["e1"]},
    }
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(data))
    out = run_json("angle", "-i", str(path), "U", "V")["outputs"]
    assert out["cos_sq"]["exact"] == "1/2"
    assert out["explicit_sum_cos_sq"]["exact"] == "1/2"


def test_angle_survives_a_failing_explicit_sum(tmp_path):
    # the second residual of V's basis has an irrational 2-norm, so the
    # explicit sum cannot orthonormalize V exactly; the angle itself is exact
    data = {
        "p": 2,
        "mode": "exact",
        "vectors": {"u": [1, 2, 3], "a": [1, 1], "b": [0, 1, 1]},
        "subspaces": {"U": ["u"], "V": ["a", "b"]},
    }
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(data))
    proc = run_cli("angle", "-i", str(path), "U", "V")
    assert "19/21" in proc.stdout
    assert "explicit_sum_cos_sq" not in proc.stdout
    warning = "explicit sum unavailable (BackendError: the 2-norm of this vector is irrational"
    assert warning in proc.stdout

    report = run_json("angle", "-i", str(path), "U", "V")
    assert report["status"] == 0
    assert report["outputs"]["cos_sq"]["exact"] == "19/21"
    assert "explicit_sum_cos_sq" not in report["outputs"]
    assert any(w.startswith(warning) for w in report["warnings"])


def test_angle_against_four_dimensions_prints_the_explicit_sum(tmp_path):
    data = {
        "p": 1,
        "mode": "exact",
        "vectors": {"u": [1, 1, 1, 1, 1], "a": [1], "b": [0, 1], "c": [0, 0, 1], "d": [0, 0, 0, 1]},
        "subspaces": {"U": ["u"], "V": ["a", "b", "c", "d"]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    proc = run_cli("angle", "-i", str(path), "U", "V")
    assert "explicit_sum_cos_sq = 16/25" in proc.stdout
    assert "cos_sq = 16/25" in proc.stdout


def test_angle_dimension_three_rejected(tmp_path):
    data = {
        "p": 1,
        "mode": "exact",
        "vectors": {"a": [1], "b": [0, 1], "c": [0, 0, 1], "d": [0, 0, 0, 1]},
        "subspaces": {"U": ["a", "b", "c"], "V": ["a", "b", "c", "d"]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    proc = run_cli("angle", "-i", str(path), "U", "V", expect=2)
    assert "undefined" in proc.stderr


# -- project / orthonormalize -----------------------------------------------


def test_project_line_vs_plane():
    report = run_json("project", "-i", problem("line_vs_plane_l1.json"), "u", "V")
    out = report["outputs"]
    assert out["projected"]["dense"] == ["1", "2"]
    assert out["residual"]["entries"] == [[3, "1"]]
    assert all(c["exact"] == "0" for c in out["residual_orthogonality"])


def test_project_degenerate_basis_exits_3():
    proc = run_cli("project", "-i", problem("gram_degenerate_l1.json"), "x1", "S", expect=3)
    assert "Gram" in proc.stderr or "determinant" in proc.stderr


@pytest.mark.parametrize(
    "args", [["project", "y", "V"], ["angle", "L", "V"], ["gram", "V", "--json"]], ids=lambda a: a[0]
)
def test_a_gram_determinant_beyond_the_float_range_is_input_error(tmp_path, capsys, args):
    # the Gram determinant of V is about 1e320: no command reads it as inf
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "p": 2.0, "mode": "float",
        "vectors": {"a": [1e40, 1e39], "b": [0.0, 1e40], "c": [2e39, 0.0, 1e40],
                    "d": [0.0, 0.0, 0.0, 1e40], "y": [1.0, 1.0]},
        "subspaces": {"L": ["y"], "V": ["a", "b", "c", "d"]},
    }))
    assert cli.main([args[0], "-i", str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "determinant" in err


def test_orthonormalize_outputs_unit_vectors():
    report = run_json("orthonormalize", "-i", problem("plane_vs_space_l1.json"), "U")
    vecs = report["outputs"]["vectors"]
    assert len(vecs) == 2
    first = [Fraction(s) for s in vecs[0]["dense"]]
    assert sum(abs(c) for c in first) == 1  # unit in the l1 norm


# -- gram -------------------------------------------------------------------


def test_gram_degenerate_exits_3_with_warning():
    report = run_json("gram", "-i", problem("gram_degenerate_l1.json"), "S", expect=3)
    out = report["outputs"]
    assert out["det"]["exact"] == "0"
    assert out["matrix"][0][0]["exact"] == "9"
    assert not out["certifies_independence"]
    assert report["warnings"]


def test_gram_nondegenerate_exits_0():
    report = run_json("gram", "-i", problem("line_vs_plane_l1.json"), "V")
    assert report["outputs"]["det"]["exact"] == "1"
    assert report["outputs"]["certifies_independence"]


# -- oracle spaces ----------------------------------------------------------


def test_demo_oracle_space(tmp_path):
    data = {
        "p": "oracle:taxicab",
        "mode": "float",
        "vectors": {"x": [1.0, 1.0], "y": [-1.0, 2.0]},
    }
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    report = run_json("g", "-i", str(path), "x", "y")
    assert report["outputs"]["g_xy"]["exact"] is None
    assert report["outputs"]["g_xy"]["decimal"] == pytest.approx(2.0, abs=1e-7)


def test_oracle_requires_float_mode(tmp_path):
    data = {"p": "oracle:max", "mode": "exact", "vectors": {"x": [1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    run_cli("g", "-i", str(path), "x", "x", expect=2)


def test_exact_mode_rejects_p3(tmp_path):
    data = {"p": 3, "mode": "exact", "vectors": {"x": [1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli("g", "-i", str(path), "x", "x", expect=2)
    assert "exact mode requires p" in proc.stderr


def test_fraction_coordinates_round_trip(tmp_path):
    data = {
        "p": 1,
        "mode": "exact",
        "vectors": {"x": [[2, "1/3"], [5, "-2/7"]]},
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(data))
    report = run_json("g", "-i", str(path), "x", "x")
    assert report["outputs"]["g_xy"]["exact"] == str(Fraction(13, 21) ** 2)


# -- paper-check ------------------------------------------------------------


def test_paper_check_default_passes_with_warns():
    proc = run_cli("paper-check")
    assert " fail" in proc.stdout
    summary_line = proc.stdout.strip().splitlines()[-1]
    assert summary_line.endswith("0 fail")
    assert "2 warn" in summary_line
    assert "WARN" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_paper_check_strict_fails():
    report = run_json("paper-check", "--strict", expect=1)
    statuses = {row["status"] for row in report["outputs"]["checks"]}
    assert "FAIL" in statuses
    assert report["outputs"]["summary"]["fail"] == 2


# -- the report contract ----------------------------------------------------


def _contract_problem(tmp_path, mode, p):
    path = tmp_path / f"contract_{mode}.json"
    path.write_text(json.dumps({
        "p": p,
        "mode": mode,
        "vectors": {"x": [1, 2, 0], "y": [0, 1, 3], "z": [1, 0, 1]},
        "subspaces": {"U": ["y"], "V": ["x", "z"], "S": ["x", "z"]},
    }))
    return str(path)


# Every file-reading subcommand names its positionals after the vectors and
# subspaces of the contract problem, so they double as its arguments.
@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
@pytest.mark.parametrize("mode, p", [("exact", 1), ("float", 1.5)])
def test_json_report_keys_and_command(tmp_path, capsys, name, mode, p):
    positionals = cli._COMMANDS[name][1]
    if positionals is None:
        runs = [([], name), (["--strict"], name + " --strict")]
    else:
        runs = [(["-i", _contract_problem(tmp_path, mode, p), *positionals], " ".join((name, *positionals)))]
    for args, command in runs:
        status = cli.main([name, *args, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "outputs", "warnings", "status"]
        assert report["command"] == command
        assert report["status"] == status == (1 if "--strict" in args else 0)
        assert cli.main([name, *args]) == status
        assert capsys.readouterr().out.startswith(f"# {command}\n")


def _console_script():
    """The object the console script named in pyproject.toml calls."""
    [(module, attr)] = re.findall(r'^gangle\s*=\s*"([\w.]+):(\w+)"', PYPROJECT.read_text(), re.M)
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize(
    "argv, code",
    [(["paper-check", "--strict"], 1), (["gram", "-i", problem("gram_degenerate_l1.json"), "S"], 3)],
    ids=["paper-check-strict", "gram-degenerate"],
)
def test_console_script_exit_status(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["gangle", *argv])
    with pytest.raises(SystemExit) as exit_info:
        sys.exit(_console_script()())
    assert exit_info.value.code == code
