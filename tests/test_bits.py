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


def _bits(*args):
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "tests" / "bits.py"), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_reports_each_kind_whose_results_differ(tmp_path):
    """A dump holds one line per task; compared with itself nothing differs,
    and one float result edited is reported under its workload and kind
    with its relative difference."""
    dump = tmp_path / "old.txt"
    printed = _bits("--dump", dump)
    lines = dump.read_text().splitlines()
    assert len(lines) == int(printed[-2].split()[0])
    assert _bits("--compare", dump, dump)[-1] == f"0 of {len(lines)} results differ"
    k = next(k for k, line in enumerate(lines) if re.fullmatch(r"-?\d+\.\d+", line.rsplit("|", 1)[1]))
    workload, seed, i, kind, value = lines[k].split("|")
    lines[k] = "|".join([workload, seed, i, kind, repr(2 * float(value))])
    edited = tmp_path / "new.txt"
    edited.write_text("\n".join(lines) + "\n")
    report = _bits("--compare", dump, edited)
    n = sum(1 for line in lines if line.split("|")[0] == workload and line.split("|")[3] == kind)
    assert report[0] == (f"{workload} | {kind}: 1 of {n} differ, largest relative difference 0.5, "
                         "below 1e-09 0 apart, 0 outcomes")
    assert report[-1] == f"1 of {len(lines)} results differ"
