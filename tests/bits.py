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

    python3 tests/bits.py --dump FILE
    python3 tests/bits.py --compare OLD NEW

``--dump`` also writes the lines it hashes to FILE, one per task.
``--compare`` reads two such dumps and prints, for each workload and task
kind with a differing result, how many results differ and the largest
relative difference between their numbers.  Numbers below 1e-9 in
magnitude, often round-off of a value that should be 0, are reported apart
by their largest absolute difference, and a result whose text differs in
more than its numbers (an error in place of a value) counts as an outcome
change.  Then one line per workload and one for all give the counts.
"""

import argparse
import hashlib
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


# A number in a result's text: an int, a float repr, or a part of a fraction.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
SMALL = 1e-9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digest, dump or compare the results of every workload task")
    parser.add_argument("--dump", metavar="FILE", help="also write the hashed lines to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps by task kind")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    lines = []
    digest = hashlib.sha256()
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
                    line = f"{workload}|{seed}|{i}|{task.kind}|{key}\n"
                    lines.append(line)
                    digest.update(line.encode())
                    own.update(line.encode())
                    own_tasks += 1
        print(f"{workload}: {own_tasks} tasks {own.hexdigest()}")
    if args.dump:
        Path(args.dump).write_text("".join(lines))
    print(f"{len(lines)} tasks")
    print(digest.hexdigest())
    return 0


def _read(path) -> dict:
    """{(workload, seed, index, kind): result text} of a dump."""
    out = {}
    with open(path) as f:
        for line in f:
            *task, key = line.rstrip("\n").split("|", 4)
            out[tuple(task)] = key
    return out


def compare(old_path, new_path) -> int:
    """Print the per-kind differences of two dumps; exit status 1 where
    they hold different tasks."""
    old, new = _read(old_path), _read(new_path)
    if old.keys() != new.keys():
        print("the dumps hold different tasks")
        return 1
    stats = {}  # (workload, kind) -> [results, differing, max relative, max absolute below SMALL, outcomes]
    for task, a in old.items():
        b = new[task]
        s = stats.setdefault((task[0], task[3]), [0, 0, 0.0, 0.0, 0])
        s[0] += 1
        if a == b:
            continue
        s[1] += 1
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            s[4] += 1
            continue
        for u, v in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
            big = max(abs(u), abs(v))
            if big < SMALL:
                s[3] = max(s[3], abs(u - v))
            elif u != v:
                s[2] = max(s[2], abs(u - v) / big)
    totals = {}
    for (workload, kind), (n, changed, rel, small, outcomes) in stats.items():
        total = totals.setdefault(workload, [0, 0])
        total[0] += n
        total[1] += changed
        if changed:
            print(f"{workload} | {kind}: {changed} of {n} differ, largest relative difference {rel:.2g}, "
                  f"below {SMALL:g} {small:.2g} apart, {outcomes} outcomes")
    for workload, (n, changed) in totals.items():
        print(f"{workload}: {changed} of {n} results differ")
    print(f"{sum(c for _, c in totals.values())} of {len(old)} results differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
