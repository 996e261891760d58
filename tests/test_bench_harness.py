"""The benchmark's own tests run with the library suite, so a library change
that breaks a pin in ``bench/test_bench.py`` (for example the one
``project`` call per two-vector orthonormalization) fails here too."""

import os
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
