"""``tests/rss.py`` runs each workload for a fixed number of passes in a
fresh interpreter and prints its task count and peak RSS, after set-up and
at the end."""

import re
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["wide-sparse", "deep-basis", "cli-replay"]  # in bench/workloads.py's order


def test_rss_runs_each_workload_and_prints_its_peaks():
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "tests" / "rss.py"), "--passes", "1"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    found = [
        re.fullmatch(r"([a-z-]+): ([1-9][0-9]*) tasks in 1 passes, set-up ([0-9.]+) MiB, peak ([0-9.]+) MiB", line)
        for line in lines
    ]
    assert all(found), lines
    assert [m[1] for m in found] == WORKLOADS
    assert all(0 < float(m[3]) <= float(m[4]) for m in found)
