"""``tests/bits.py`` runs every workload task and prints one digest, float
bits included, for comparing two checkouts, after one digest per
workload."""

import re
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["wide-sparse", "deep-basis", "cli-replay"]  # in bench/workloads.py's order


def test_bits_runs_every_task_and_prints_a_digest():
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "tests" / "bits.py")],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"[1-9][0-9]* tasks", lines[-2])
    assert re.fullmatch(r"[0-9a-f]{64}", lines[-1])
    counts = {}
    for line in lines[:-2]:
        found = re.fullmatch(r"([a-z-]+): ([1-9][0-9]*) tasks [0-9a-f]{64}", line)
        assert found, line
        counts[found[1]] = int(found[2])
    assert list(counts) == WORKLOADS
    assert sum(counts.values()) == int(lines[-2].split()[0])
