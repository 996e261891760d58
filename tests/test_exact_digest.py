"""Exact results of the benchmark workloads, pinned.

One checked pass of each workload at seed 1 runs through ``bench/run.py``'s
``set_up`` and ``run_pass``, imported as they are.  Every task must pass its
check, and the digest of the exact tasks' results must equal the one below,
so a kernel change that alters any exact result fails here, even where the
task's own check would accept the new value.  Each pass runs in a fresh
interpreter because ``set_up`` imports gangle afresh from ``src/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "deep-basis": "c7a03607f684b6680f0144a56445a21bbe20bc3a46df2d9a72c575f852379ed7",
    "wide-sparse": "316564cb3d50abbcc8334551919e4084cfeb6b1d36e11b33f1736a0ddb4b94b1",
    "cli-replay": "ed609ebcab389d596a46153fcb21c4f03e63696f661bc43af4ac4ce6e0ef0e12",
}

ONE_PASS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "bench")
import run
with tempfile.TemporaryDirectory() as workdir:
    G, deck = run.set_up(sys.argv[1], 1, Path(workdir))
    result = run.run_pass(G, deck)
print(json.dumps({"failed": result.failed, "digest": result.digest}))
"""


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_one_pass_gives_the_pinned_exact_digest(workload):
    proc = subprocess.run(
        [sys.executable, "-c", ONE_PASS, workload],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["digest"] == DIGESTS[workload]
