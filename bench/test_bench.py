"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run
import tracer
import workloads


def bindings():
    """Every public function binding in the gangle namespaces, and every
    attribute of the traced classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "gangle" or name.startswith("gangle."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    out[(name, attr)] = value
    for layer, classes in tracer.METHODS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"gangle.{layer}"], cls_name)
            out.update({(cls_name, attr): value for attr, value in vars(cls).items()})
    return out


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.G = run.import_gangle()

    def test_counts_calls_inside_the_package_and_restores_originals(self):
        G = self.G
        before = bindings()
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(sys.modules["gangle.gram"].g, before[("gangle.gram", "g")])
            u = G.SparseVector.from_dense([1, 2, 1])
            V = G.Subspace([G.SparseVector.from_dense([1]), G.SparseVector.from_dense([0, 1])], G.LpSpace(1))
            tr.active = True
            self.assertEqual(G.cos_sq_explicit_sum(u, V), Fraction(9, 16))
            tr.active = False
            G.project(u, V)   # paused: not counted
        finally:
            tr.uninstall()

        self.assertEqual(bindings(), before)
        for key, value in before.items():
            self.assertIs(bindings()[key], value, key)
        metrics = tr.layer_metrics()
        self.assertEqual(metrics["angles.explicit_sum_calls"], 1)
        self.assertEqual(metrics["gram.orthonormalize_calls"], 1)
        self.assertGreater(metrics["angles.explicit_sum_det_calls"], 0)
        self.assertGreaterEqual(metrics["gram.det_calls"], metrics["angles.explicit_sum_det_calls"])
        self.assertGreater(tr.count("semi_inner.g", site="gram"), 0)
        self.assertGreater(metrics["vectors.get_calls"], 0)
        self.assertEqual(metrics["gram.project_calls"], 1)   # inside left_orthonormalize only
        self.assertEqual(len(tr.starts), len(tr.ends))
        self.assertTrue(all(e >= s for s, e in zip(tr.starts, tr.ends)))

    def test_counts_typed_errors_leaving_a_layer_once(self):
        G = self.G
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.active = True
            with self.assertRaises(G.DegenerateSubspaceError):
                x1, x2 = G.SparseVector.from_dense([1, 2]), G.SparseVector.from_dense([2, 1])
                G.project(x1, G.Subspace([x1, x2], G.LpSpace(1)))
        finally:
            tr.uninstall()
        self.assertEqual(tr.typed_errors["gram"], 1)


class DeckTest(unittest.TestCase):
    def test_same_seed_gives_the_same_deck(self):
        for name in workloads.WORKLOADS:
            decks = []
            for _ in range(2):
                G = run.import_gangle()
                with tempfile.TemporaryDirectory() as workdir:
                    deck = workloads.DECKS[name](G, random.Random(7), workdir)
                    files = {p.name: p.read_text() for p in Path(workdir).iterdir()}
                decks.append(([t.kind for t in deck], files))
            self.assertEqual(decks[0], decks[1], name)
            self.assertGreaterEqual(len(decks[0][0]), run.MIN_TASKS, name)

    def test_canonical_form_is_stable_and_typed(self):
        G = run.import_gangle()
        v = G.SparseVector({2: Fraction(1, 3), 5: 2})
        self.assertEqual(run.canonical(G, (v, Fraction(1, 2), 0.1)), "[V[[2,1/3],[5,2]],1/2,0.1]")
        self.assertEqual(run.canonical(G, G.ConsistencyError("x")), "!ConsistencyError")


class RunPassTest(unittest.TestCase):
    def test_a_result_that_changes_in_a_later_pass_fails(self):
        G = run.import_gangle()
        calls = itertools.count()
        deck = [workloads.Task("constant", lambda: Fraction(1, 3), lambda r: True, exact=True)
                for _ in range(run.MIN_TASKS - 1)]
        deck.append(workloads.Task("changing", lambda: next(calls), lambda r: True, exact=True))
        result = run.run_pass(G, deck, passes=3)
        self.assertEqual(result.attempted, 3 * run.MIN_TASKS)
        self.assertEqual(result.failed, 2)   # the changing task in passes 2 and 3

    def test_cold_set_ups_run_in_fresh_processes(self):
        saved = run.SETUP_REPS
        try:
            run.SETUP_REPS = 2
            times, probes = run.cold_set_ups("cli-replay", 1)
        finally:
            run.SETUP_REPS = saved
        self.assertEqual(len(times), 2)
        self.assertTrue(all(t > 0 for t in times + probes))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        run.import_gangle()
        names = list(tracer.Tracer().layer_metrics()) + ["trace.overhead_ratio"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: run.per_layer_unit(n) for n in names})

    def test_exits_nonzero_without_sources(self):
        saved = run.SRC
        try:
            with tempfile.TemporaryDirectory() as empty:
                run.SRC = Path(empty)
                code = run.main(["--workload", "cli-replay", "--seed", "1", "--seconds", "1"])
        finally:
            run.SRC = saved
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
