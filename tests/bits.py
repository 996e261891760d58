"""One digest over every result of the benchmark workloads, float bits included.

    python3 tests/bits.py

Builds each workload's deck at seeds 1, 2 and 3 through ``bench/run.py``'s
``set_up`` and runs every task once, unchecked.  Each result enters the
digest as its canonical text: ``run.canonical`` for values (type names,
float ``repr``s, exact values as fractions), and the type name and message
for a typed error.  The last line of output is the sha256 of it all, so two
checkouts that print the same digest gave every task the same bits.  Before
it, one line per workload gives that workload's task count and the sha256
of its results alone, so a changed bit names its workload.  An error that
is not a ``GAngleError`` stops the script with exit status 1.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    digest = hashlib.sha256()
    tasks = 0
    for workload in workloads.WORKLOADS:
        own = hashlib.sha256()
        own_tasks = 0
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                G, deck = run.set_up(workload, seed, Path(workdir))
                for i, task in enumerate(deck):
                    try:
                        key = run.canonical(G, task.call())
                    except G.GAngleError as exc:
                        key = f"!{type(exc).__name__}: {exc}"
                    line = f"{workload}|{seed}|{i}|{task.kind}|{key}\n".encode()
                    digest.update(line)
                    own.update(line)
                    own_tasks += 1
        print(f"{workload}: {own_tasks} tasks {own.hexdigest()}")
        tasks += own_tasks
    print(f"{tasks} tasks")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
