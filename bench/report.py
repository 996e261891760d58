"""Run every workload, print all metrics and check the layer predictions.

    python3 bench/report.py [--seed N]

For each workload this runs ``run.py`` once untraced and twice traced, all
with the same seed and with the ``run_seconds`` of BENCHMARK.json, one after
another.  It prints the end-to-end metrics
(with the failure and typed-error ratios and the exact digest), the
per-layer metrics, whether every count repeated exactly across the two
traced runs and whether the digests agree, and then checks each layer
prediction of README.md against the traced numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    return result, detail


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_count(name, unit):
    """Metrics that do not depend on timing and must repeat exactly."""
    return unit == "count" or name in ("semi_inner.tau_exact_share", "gram.gram_reuse_ratio")


def predictions(R):
    """(workload, statement, measured text, held) for each prediction."""
    def share(w, layer):
        return R[w]["tdetail"]["layer_self_share"].get(layer, 0.0)

    def lay(w, name):
        return R[w]["layer"][name]

    W, D, C = workloads.WORKLOADS
    return [
        (W, "vectors and semi_inner do almost all the work (>= 90% of self time)",
         f"{share(W, 'vectors') + share(W, 'semi_inner'):.1%}",
         share(W, "vectors") + share(W, "semi_inner") >= 0.9),
        (W, "gram does almost nothing (<= 2% of self time)", f"{share(W, 'gram'):.2%}", share(W, "gram") <= 0.02),
        (W, "Gram data is cached and reused (gram_reuse_ratio >= 0.7)",
         f"{lay(W, 'gram.gram_reuse_ratio'):.3f}", lay(W, "gram.gram_reuse_ratio") >= 0.7),
        (D, "no Gram data is reused (gram_reuse_ratio <= 0.2)",
         f"{lay(D, 'gram.gram_reuse_ratio'):.3f}", lay(D, "gram.gram_reuse_ratio") <= 0.2),
        (D, "Gram construction and elimination dominate (gram + semi_inner >= 70% of self time)",
         f"gram {share(D, 'gram'):.1%}, semi_inner {share(D, 'semi_inner'):.1%}",
         share(D, "gram") + share(D, "semi_inner") >= 0.7),
        (D, "the gram layer itself weighs more here than on wide-sparse",
         f"{share(D, 'gram'):.2%} vs {share(W, 'gram'):.2%}", share(D, "gram") > share(W, "gram")),
        (D, "short vectors: the vectors layer weighs less here than on wide-sparse",
         f"{share(D, 'vectors'):.1%} vs {share(W, 'vectors'):.1%}", share(D, "vectors") < share(W, "vectors")),
        (C, "the explicit sum sets the tail (>= 50% of the time of tasks at or above p90)",
         f"{R[C]['tdetail']['tail_explicit_sum_share']:.1%}", R[C]["tdetail"]["tail_explicit_sum_share"] >= 0.5),
        (C, "bundled-file calls set the median (latency_p50_ms <= 10)",
         f"{R[C]['e2e']['latency_p50_ms']:.2f} ms", R[C]["e2e"]["latency_p50_ms"] <= 10),
        (C, "only cli-replay exercises cli and checks",
         ", ".join(f"{w}: cli {lay(w, 'cli.self_s'):.3f} s, checks {lay(w, 'checks.self_s'):.4f} s" for w in R),
         all((lay(w, "cli.self_s") > 0 and lay(w, "checks.self_s") > 0) == (w == C) for w in R)),
        (C, "the vectors layer barely moves cli-replay (<= 10% of self time)",
         f"{share(C, 'vectors'):.1%}", share(C, "vectors") <= 0.1),
        ("all", "the angles layer does almost nothing outside cli-replay (<= 1% of self time)",
         f"{share(W, 'angles'):.2%}, {share(D, 'angles'):.2%}",
         share(W, "angles") <= 0.01 and share(D, "angles") <= 0.01),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    R = {}
    ok = True
    for w in workloads.WORKLOADS:
        plain, detail = run_once(w, args.seed, seconds, 0)
        traced = [run_once(w, args.seed, seconds, 1) for _ in range(2)]
        (t1, td1), (t2, _) = traced
        R[w] = {"e2e": values(plain), "detail": detail, "layer": values(t1), "tdetail": td1}
        print(f"== {w}  seed {args.seed}  python {detail['python']}  nproc {detail['nproc']}  "
              f"commit {detail['commit']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:32} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_ratio':32} {detail['failed_ratio']:>14.6g} ratio")
        print(f"  {'typed_error_ratio':32} {detail['typed_error_ratio']:>14.6g} ratio")
        print(f"  {'samples':32} {detail['samples']:>14} tasks, {detail['samples_beyond_p90']} beyond p90")
        print(f"  {'exact_digest':32} {detail['exact_digest']}")
        for name, m in t1["metrics"].items():
            print(f"  {name:32} {m['value']:>14.6g} {m['unit']}")
        unstable = [n for n, m in t1["metrics"].items()
                    if is_count(n, m["unit"]) and m["value"] != t2["metrics"][n]["value"]]
        same_digest = detail["exact_digest"] == td1["exact_digest"]
        correct = plain["correct"] and t1["correct"] and t2["correct"]
        print(f"  counts repeat exactly across two traced runs: {not unstable} {unstable or ''}")
        print(f"  exact digest equal untraced vs traced: {same_digest}; all runs correct: {correct}")
        ok = ok and not unstable and same_digest and correct

    print("== layer predictions")
    for workload, statement, measured, held in predictions(R):
        print(f"  {'HELD' if held else 'NOT HELD':8} {workload:12} {statement}: {measured}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
