"""Exact results of the benchmark workloads, pinned.

One checked pass of each workload at seeds 1, 2 and 3 runs through
``bench/run.py``'s ``set_up`` and ``run_pass``, imported as they are.  Every
task must pass its check, and the digest of the exact tasks' results must
equal the one below, so a kernel change that alters any exact result fails
here, even where the task's own check would accept the new value.  Each pass
runs in a fresh interpreter because ``set_up`` imports gangle afresh from
``src/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    ("deep-basis", 1): "c7a03607f684b6680f0144a56445a21bbe20bc3a46df2d9a72c575f852379ed7",
    ("deep-basis", 2): "21dee13a6b62a71380d58a7f902f9589c8506c40f682317910147df694b53d53",
    ("deep-basis", 3): "30724cbcff09a0976e1b7a994928fb26f4422f87c2356adc91b68be733b73f5f",
    ("wide-sparse", 1): "316564cb3d50abbcc8334551919e4084cfeb6b1d36e11b33f1736a0ddb4b94b1",
    ("wide-sparse", 2): "7ac60f2c74e6e6192f2166c6b0da43e59a59dc48bbf951e8c8643dee04711271",
    ("wide-sparse", 3): "1fcff102eb044e9ffae26e42e4f7ebba3e55dced020d323ed2f16fa98b827e93",
    ("cli-replay", 1): "7160cc7a312055f1dbfba2b8c77180099dc473369f6d5662a95df876f3fd52af",
    ("cli-replay", 2): "b877f68bc7dc4ebfd374af80f6c6eafa95aa2bb737352348bec20f43a45cf647",
    ("cli-replay", 3): "f48a4470c181bd9cfd2784c2e00e7cc89248fb271b61eeda22f0ef06012e8ce2",
}

ONE_PASS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "bench")
import run
with tempfile.TemporaryDirectory() as workdir:
    G, deck = run.set_up(sys.argv[1], int(sys.argv[2]), Path(workdir))
    result = run.run_pass(G, deck)
print(json.dumps({"failed": result.failed, "digest": result.digest}))
"""


@pytest.mark.parametrize(
    "workload,seed",
    # seed 1 keeps the bare workload name as its id
    [pytest.param(w, s, id=w if s == 1 else f"{w}-seed{s}") for w, s in sorted(DIGESTS)],
)
def test_one_pass_gives_the_pinned_exact_digest(workload, seed):
    proc = subprocess.run(
        [sys.executable, "-c", ONE_PASS, workload, str(seed)],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["digest"] == DIGESTS[workload, seed]
