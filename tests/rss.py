"""Peak RSS of the benchmark workloads at a fixed amount of work.

    python3 tests/rss.py [--passes N] [workload ...]

Runs each workload (all of them by default) at seed 1 in a fresh
interpreter: ``bench/run.py``'s ``set_up`` builds its deck, and ``run_pass``
runs N whole passes over it (1 by default), checking each task and timing
the probe before it, as a timed benchmark run does.  One line per workload
gives the number of tasks run, the peak RSS after set-up and the peak RSS
at the end, both ``ru_maxrss`` in MiB.  The benchmark's ``peak_rss_mib`` is
that of a run of fixed duration, so it grows with the number of tasks a
faster library finishes; at a fixed number of passes two checkouts run the
same tasks, and their peaks compare the memory of the same work.  A failed
task stops the script with exit status 1.
"""

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SEED = 1

# Run in a fresh interpreter; prints "tasks failed setup_kib peak_kib".
CHILD = """
import resource, sys, tempfile
from pathlib import Path
sys.path.insert(0, {bench!r})
import run
with tempfile.TemporaryDirectory() as workdir:
    G, deck = run.set_up({workload!r}, {seed}, Path(workdir))
    setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = run.run_pass(G, deck, passes={passes})
print(result.attempted, result.failed, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def measure(workload: str, passes: int) -> tuple:
    """(tasks, failed, set-up MiB, peak MiB) of one workload in a fresh interpreter."""
    code = CHILD.format(bench=str(BENCH), workload=workload, seed=SEED, passes=passes)
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
    tasks, failed, setup, peak = map(int, proc.stdout.split())
    return tasks, failed, setup / 1024, peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=1, help="whole passes over each deck (default 1)")
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(workloads.WORKLOADS)} (default all)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    unknown = [w for w in args.workload if w not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        tasks, failed, setup, peak = measure(workload, args.passes)
        print(f"{workload}: {tasks} tasks in {args.passes} passes, set-up {setup:.2f} MiB, peak {peak:.2f} MiB")
        if failed:
            print(f"{workload}: {failed} tasks failed", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
