"""Run one workload of the gangle benchmark and print its metrics.

    python3 bench/run.py --workload wide-sparse --seed 1 --seconds 10 --trace 0

One caller in one process runs the workload's task deck as a closed loop:
each task starts when the previous one has finished.  Every task result is
checked outside the timed interval.  With ``--trace 0`` the loop runs whole
passes over the deck, at least three, until ``--seconds`` of task time have
passed, and the end-to-end metrics are reported.  Whole passes keep the task
mix of every run the same.  With ``--trace 1`` one pass runs untraced and one
under the per-layer tracer, and the per-layer metrics are reported.

``setup_s`` is measured on fresh processes: the benchmark starts this script
SETUP_REPS times with ``--setup-only``, and each child imports gangle, builds
the deck and writes the problem files, then exits.  Every import the library
makes is therefore paid anew in every set-up.

Times are calibrated.  Other tenants of a shared machine change its speed
by up to half for seconds to minutes at a time, which moves every wall time
alike.  Before each task (and around each set-up) the benchmark times a
fixed stdlib probe, and scales each measured time by PROBE_REF_S over the
median probe time around it: the reported times are the times the work
would take on a machine where the probe takes PROBE_REF_S.  The raw
wall-time figures are printed too, in ``detail``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
prefixed ``detail``, carries everything else as JSON (failure and typed-error
ratios, the exact digest, sample counts, Python version, nproc, commit).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_TASKS = 100     # deck size at least, so that p90 has 10 samples beyond it
MIN_PASSES = 3      # passes per timed run
PROBE_REF_S = 1e-3  # probe time that defines the unit of calibrated time
PROBE_WINDOW = 4    # probes on each side of a task that set its machine speed
SETUP_REPS = 7      # cold set-ups per timed run; setup_s is their median

END_TO_END = {
    "tasks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "clean_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


# -- set-up ---------------------------------------------------------------------


def import_gangle():
    """Import gangle afresh from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "gangle" or m.startswith("gangle.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    G = importlib.import_module("gangle")
    importlib.import_module("gangle.cli")
    if Path(G.__file__).resolve().parent != (SRC / "gangle").resolve():
        raise ImportError(f"gangle was imported from {G.__file__}, not from {SRC}")
    return G


def set_up(workload, seed, workdir):
    """Import gangle, build every input and write the problem files."""
    G = import_gangle()
    return G, workloads.DECKS[workload](G, random.Random(seed), workdir)


def cold_set_ups(workload, seed):
    """Time SETUP_REPS set-ups, each in a fresh process from its start to its
    exit; returns the time of each and the median probe time around each."""
    times, probes = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    for _ in range(SETUP_REPS):
        before = [probe() for _ in range(PROBE_WINDOW)]
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
        probes.append(statistics.median(before + [probe() for _ in range(PROBE_WINDOW)]))
    return times, probes


# -- calibration -------------------------------------------------------------------

_PROBE_ENTRIES = tuple((i, 0.5 * i) for i in range(1, 16001))


def probe() -> float:
    """Seconds taken by a fixed stdlib workload made of what the library
    spends its time on: Fraction arithmetic, a scan over (index, value)
    tuples as large as a long vector, and float powers."""
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 100):
        acc += Fraction(k, k + 1)
    for i, _ in _PROBE_ENTRIES:
        if i < 0:
            break
    acc = 0.0
    for _, v in _PROBE_ENTRIES[:300]:
        acc += abs(v) ** 1.5
    return perf_counter() - start


def calibrated(times, probes):
    """Scale times[j] by PROBE_REF_S over the median of the probes taken
    around it (probes[j] was taken just before times[j])."""
    out = []
    for j, t in enumerate(times):
        local = statistics.median(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
        out.append(t * PROBE_REF_S / local)
    return out


# -- the closed loop --------------------------------------------------------------


def canonical(G, obj) -> str:
    """Canonical text of a result, for the exact digest and repeat checks."""
    if isinstance(obj, BaseException):
        return "!" + type(obj).__name__
    if obj is None or isinstance(obj, (bool, int, Fraction)):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(G, o) for o in obj) + "]"
    if isinstance(obj, G.SparseVector):
        return "V" + canonical(G, obj.items())
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + canonical(G, [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    raise TypeError(f"no canonical form for {type(obj).__name__}")


@dataclasses.dataclass
class Pass:
    latencies: list
    probes: list
    attempted: int = 0
    failed: int = 0
    typed: int = 0
    digest: str = ""

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)


def run_pass(G, deck, *, seconds=0.0, passes=1, trace=None, check=True) -> Pass:
    """Run whole passes over the deck, at least ``passes``, until ``seconds``
    of task time.  The exact digest covers the first pass; a task whose
    result in a later pass differs from its first one fails."""
    if len(deck) < MIN_TASKS:
        raise ValueError(f"a deck needs at least {MIN_TASKS} tasks, not {len(deck)}")
    result = Pass([], [])
    digest = hashlib.sha256()
    seen = {}   # deck index -> (canonical result, verdict) of its first run
    busy = 0.0
    i = 0
    while True:
        idx = i % len(deck)
        task = deck[idx]
        result.probes.append(probe())
        if trace is not None:
            trace.task = i
            trace.active = True
        start = perf_counter()
        try:
            value, error = task.call(), None
        except Exception as exc:  # classified below; any undocumented one is a failure
            value, error = None, exc
        end = perf_counter()
        if trace is not None:
            trace.active = False
        result.latencies.append(end - start)
        busy += end - start
        key = canonical(G, error if error is not None else value)
        if i < len(deck) and task.exact:
            digest.update(f"{i}|{task.kind}|{key}\n".encode())

        if error is not None:
            name = type(error).__name__
            if name in task.required:
                ok = True
            elif isinstance(error, G.GAngleError) and name in task.allowed:
                ok = True
                result.typed += 1
            else:
                ok = False
                traceback.print_exception(error, file=sys.stderr)
        elif not check:
            ok = True
        elif idx in seen:
            ok = seen[idx][1]
        else:
            try:
                ok = bool(task.check(value))
            except Exception:  # a check that cannot run counts as a failed check
                traceback.print_exc(file=sys.stderr)
                ok = False
        if idx not in seen:
            seen[idx] = (key, ok)
        elif key != seen[idx][0]:
            ok = False
            print(f"task {i} ({task.kind}) differs from its first run: {seen[idx][0][:200]}",
                  file=sys.stderr)
        if not ok:
            result.failed += 1
            print(f"task {i} ({task.kind}) failed: {key[:200]}", file=sys.stderr)
        result.attempted += 1
        i += 1
        if i % len(deck) == 0 and busy >= seconds and i // len(deck) >= passes:
            break
    result.digest = digest.hexdigest()
    return result


def percentile(values, q) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# -- reporting ------------------------------------------------------------------------


def commit_id():
    """The checked-out commit, read from .git without starting git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }


def timed_run(G, deck, args, workdir):
    run = run_pass(G, deck, seconds=args.seconds, passes=MIN_PASSES)
    n = len(deck)
    setup_times, setup_probes = cold_set_ups(args.workload, args.seed)

    def timings(task_times, setup_times):
        return {
            "tasks_per_s": len(task_times) / math.fsum(task_times),
            "latency_p50_ms": percentile(task_times, 50) * 1e3,
            "latency_p90_ms": percentile(task_times, 90) * 1e3,
            "setup_s": statistics.median(setup_times),
        }

    metrics = timings(calibrated(run.latencies, run.probes),
                      [t * PROBE_REF_S / p for t, p in zip(setup_times, setup_probes)])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["clean_ratio"] = 1 - run.typed / run.attempted
    detail = {
        "failed_ratio": run.failed / run.attempted,
        "typed_error_ratio": run.typed / run.attempted,
        "typed_errors": run.typed,
        "samples": run.attempted,
        "samples_beyond_p90": run.attempted - math.ceil(0.9 * run.attempted),
        "passes": run.attempted // n,
        "measured_s": run.busy_s,
        "probe_median_ms": statistics.median(run.probes) * 1e3,
        "wall_time": timings(run.latencies, setup_times),
        "setup_runs_s": setup_times,
        "exact_digest": run.digest,
    }
    return run, metrics, END_TO_END, detail, True


def traced_run(G, deck, args, workdir):
    plain = run_pass(G, deck, check=False)
    # A fresh deck, so that Gram data cached by the first pass is not reused.
    deck = workloads.DECKS[args.workload](G, random.Random(args.seed), workdir)
    tr = tracer.Tracer()
    tr.install()
    replaced = tr.originals()
    try:
        run = run_pass(G, deck, trace=tr)
    finally:
        tr.uninstall()
    restored = all(vars(owner)[attr] is original for owner, attr, original in replaced)

    metrics = tr.layer_metrics()
    metrics["trace.overhead_ratio"] = (math.fsum(calibrated(plain.latencies, plain.probes))
                                       / math.fsum(calibrated(run.latencies, run.probes)))
    units = {name: per_layer_unit(name) for name in metrics}

    self_s, _, by_task = tr.span_times()
    total_self = sum(self_s.values())
    threshold = percentile(run.latencies, 90)
    tail = [i for i, t in enumerate(run.latencies) if t >= threshold]
    tail_time = math.fsum(run.latencies[i] for i in tail)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tr.write_spans(spans_path)
    detail = {
        "failed_ratio": run.failed / run.attempted,
        "typed_error_ratio": run.typed / run.attempted,
        "samples": run.attempted,
        "exact_digest": run.digest,
        "untraced_digest": plain.digest,
        "wrappers_installed": len(replaced),
        "wrappers_restored": restored,
        "spans": len(tr.starts),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_self_share": {layer: self_s[layer] / total_self for layer in tracer.LAYERS} if total_self else {},
        "tail_tasks": len(tail),
        "tail_explicit_sum_share": math.fsum(
            by_task[(i, "angles.cos_sq_explicit_sum")] for i in tail) / tail_time,
        "g_calls_per_task": metrics["semi_inner.g_calls"] / run.attempted,
    }
    correct = restored and plain.failed == 0 and plain.digest == run.digest
    return run, metrics, units, detail, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="task time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, as one of the cold set-ups that setup_s times")
    args = parser.parse_args(argv)

    if not (SRC / "gangle" / "__init__.py").is_file():
        print(f"error: no gangle sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        G, deck = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        measure = traced_run if args.trace else timed_run
        run, metrics, units, detail, correct = measure(G, deck, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **environment(), **detail}
    print(f"# gangle benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {detail['python']}, nproc {detail['nproc']}, commit {detail['commit']}")
    for name, value in metrics.items():
        print(f"{name:32} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':32} {detail['failed_ratio']:>16.6g} ratio")
    print(f"{'typed_error_ratio':32} {detail['typed_error_ratio']:>16.6g} ratio")
    print(f"{'samples':32} {detail['samples']:>16} tasks in {detail.get('passes', 1)} passes")
    print(f"{'exact_digest':32} {detail['exact_digest']}")
    print("detail " + json.dumps(detail))
    correct = correct and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
