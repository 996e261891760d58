import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
)

PKG_ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = PKG_ROOT / "problems"


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
    assert "unknown vector" in proc.stderr


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
