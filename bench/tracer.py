"""Per-layer tracing of gangle, installed from outside the package.

The tracer replaces every public function of the layer modules (``vectors``,
``semi_inner``, ``gram``, ``angles``, ``checks``, ``cli``) in every gangle
module namespace that binds it, plus the hot methods of ``SparseVector`` and
``Subspace.gram``.  Calls made inside the package therefore go through the
wrappers too: ``g`` is counted when ``gram.project`` calls it, and ``det`` is
counted separately when ``angles.cos_sq_explicit_sum`` calls it.

Each wrapped call records a span (name, start, end, parent span, task id) in
flat in-memory arrays, except the per-entry helpers in ``COUNT_ONLY``, which
run far too often and are only counted.  ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("vectors", "semi_inner", "gram", "angles", "checks", "cli")

# Methods wrapped on classes, by layer module.  Class attributes that alias
# one of them (``__add__ = add``) are wrapped as well.
METHODS = {
    "vectors": {"SparseVector": ("__init__", "get", "add", "scale", "sub")},
    "gram": {"Subspace": ("gram",)},
}
# Called once per vector entry or per constructed vector: counted, no span.
COUNT_ONLY = frozenset({
    "vectors.SparseVector.get", "vectors.SparseVector.__init__", "vectors.sgn", "vectors.join_backends",
})


def _gangle_namespaces():
    return [m for name, m in sys.modules.items() if name == "gangle" or name.startswith("gangle.")]


class Tracer:
    """Counts and spans for one traced pass.  ``active`` pauses recording
    (the wrappers then only forward the call)."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.calls = Counter()          # (function name, binding module) -> calls
        self.typed_errors = Counter()   # layer -> GAngleErrors leaving it
        self.oracle_evals = 0
        self.tau_pairs = 0
        self.tau_exact = 0
        self.names = []                 # span name id -> name
        self.name_layer = []            # span name id -> layer
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_ids = array("l")
        self.task_ids = array("l")
        self._stack = []
        self._restore = []              # (owner, attribute, original object)
        self._error_type = None

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._error_type = sys.modules["gangle.errors"].GAngleError
        namespaces = _gangle_namespaces()
        for layer in LAYERS:
            # sys.modules, because the package re-exports a function named
            # ``gram`` that shadows the ``gangle.gram`` submodule attribute.
            module = sys.modules[f"gangle.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            site = ns.__name__.rpartition(".")[2]
                            self._patch(ns, bound, self._wrap(name, layer, fn, site))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = vars(cls)[method]
                    name = f"{layer}.{cls_name}.{method}"
                    wrapper = self._wrap(name, layer, fn, cls_name)
                    for bound, value in list(vars(cls).items()):
                        if value is fn:
                            self._patch(cls, bound, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def originals(self):
        """(owner, attribute, original) for every binding the tracer replaced."""
        return list(self._restore)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, layer, fn, site):
        key = (name, site)
        calls = self.calls
        tracer = self

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        if name not in self.names:
            self.names.append(name)
            self.name_layer.append(layer)
        nid = self.names.index(name)
        hook = {"vectors.norm": self._count_oracle, "semi_inner.tau": self._count_tau}.get(name)

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            result = tracer._span(nid, layer, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return spanned

    def _span(self, nid, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        sid = len(self.starts)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(parent)
        self.name_ids.append(nid)
        self.task_ids.append(self.task)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._error_type:
            if parent < 0 or self.name_layer[self.name_ids[parent]] != layer:
                self.typed_errors[layer] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.starts[sid] = start
            self.ends[sid] = end

    def _count_oracle(self, args, kwargs, result) -> None:
        space = args[1] if len(args) > 1 else kwargs["space"]
        if isinstance(space, sys.modules["gangle.vectors"].OracleSpace):
            self.oracle_evals += 1

    def _count_tau(self, args, kwargs, result) -> None:
        self.tau_pairs += 1
        if result.step_used == 0:
            self.tau_exact += 1

    # -- results ------------------------------------------------------------

    def count(self, name, site=None) -> int:
        return sum(n for (fn, s), n in self.calls.items() if fn == name and (site is None or s == site))

    def span_times(self):
        """Per-layer self time, per-name inclusive time, and per-task
        inclusive time of each span name, all in seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[sid]
        self_s = Counter()
        inclusive = Counter()
        by_task = Counter()
        for sid, dur in enumerate(durations):
            nid = self.name_ids[sid]
            self_s[self.name_layer[nid]] += dur - children[sid]
            inclusive[self.names[nid]] += dur
            by_task[(self.task_ids[sid], self.names[nid])] += dur
        return self_s, inclusive, by_task

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, except trace.overhead_ratio."""
        self_s, inclusive, _ = self.span_times()
        c = self.count
        builds = c("gram.gram")
        reads = c("gram.Subspace.gram")
        return {
            "vectors.construct_calls": c("vectors.SparseVector.__init__"),
            "vectors.get_calls": c("vectors.SparseVector.get"),
            "vectors.arith_calls": sum(c(f"vectors.SparseVector.{m}") for m in ("add", "scale", "sub")),
            "vectors.norm_calls": sum(c(f"vectors.{f}") for f in ("lp_norm", "norm", "norm_sq")),
            "vectors.oracle_evals": self.oracle_evals,
            "vectors.self_s": self_s["vectors"],
            "semi_inner.g_calls": c("semi_inner.g"),
            "semi_inner.g_from_norm_calls": c("semi_inner.g_from_norm"),
            "semi_inner.tau_calls": c("semi_inner.tau"),
            "semi_inner.tau_exact_share": self.tau_exact / self.tau_pairs if self.tau_pairs else 0.0,
            "semi_inner.self_s": self_s["semi_inner"],
            "semi_inner.typed_errors": self.typed_errors["semi_inner"],
            "gram.gram_builds": builds,
            "gram.gram_reads": reads,
            "gram.gram_reuse_ratio": 1 - builds / reads if reads else 0.0,
            "gram.det_calls": c("gram.det"),
            "gram.solve_calls": c("gram.solve"),
            "gram.project_calls": c("gram.project"),
            "gram.orthonormalize_calls": c("gram.left_orthonormalize"),
            "gram.self_s": self_s["gram"],
            "gram.typed_errors": self.typed_errors["gram"],
            "angles.calls": sum(
                n for (fn, _), n in self.calls.items() if fn.startswith("angles.")
            ),
            "angles.explicit_sum_calls": c("angles.cos_sq_explicit_sum"),
            "angles.explicit_sum_det_calls": c("gram.det", site="angles"),
            "angles.self_s": self_s["angles"],
            "angles.typed_errors": self.typed_errors["angles"],
            "checks.self_s": self_s["checks"],
            "cli.load_problem_s": inclusive["cli.load_problem"],
            "cli.command_s": sum(t for name, t in inclusive.items() if name.startswith("cli.cmd_")),
            "cli.self_s": self_s["cli"],
            "cli.typed_errors": self.typed_errors["cli"],
        }

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tname\ttask\tparent\tstart_s\tend_s\n")
            t0 = self.starts[0] if len(self.starts) else 0.0
            for sid in range(len(self.starts)):
                fh.write(
                    f"{sid}\t{self.names[self.name_ids[sid]]}\t{self.task_ids[sid]}\t"
                    f"{self.parents[sid]}\t{self.starts[sid] - t0:.9f}\t{self.ends[sid] - t0:.9f}\n"
                )
