"""Per-layer tracing by wrapping the engine's functions from outside.

``Tracer.install`` replaces functions of ``dyntree.core``, ``dyntree.dynamic``,
``dyntree.build`` and ``dyntree.gini`` with wrappers that record spans;
``uninstall`` puts the originals back. The program's code is not changed.

A span is one call of a wrapped function. Spans nest along the call stack;
a span's self time is its duration minus the durations of the spans it
called directly, so the self times of all spans add up to the time spent
inside top-level spans. Statistics are aggregated in memory per
(caller span, span) pair and written out when the run ends.

Two names must be patched with care:

* ``dyntree/__init__.py`` rebinds ``dyntree.build`` to the function
  ``build``, so the module is taken from ``sys.modules``.
* A ``DecisionTree`` binds its builder when it is constructed, and the
  builders find ``_sweep_numeric`` and ``_gain_from_counts`` through the
  ``dyntree.build`` namespace, so wrappers go into the namespaces that
  look the names up, and must be installed before the trees are built.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from dyntree import ActiveMultiset, DecisionTree, Schema, TreeNode

dynamic_mod = sys.modules["dyntree.dynamic"]
build_mod = sys.modules["dyntree.build"]

_ROOT = "bench.loop"


def _signature(node) -> list:
    """Preorder list of a subtree's splits, None for each leaf."""
    out, stack = [], [node]
    while stack:
        v = stack.pop()
        if v.is_leaf:
            out.append(None)
        else:
            s = v.split
            out.append((s.feature, s.threshold, s.categorical))
            stack.append(v.right)
            stack.append(v.left)
    return out


class Tracer:
    """Span and counter recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.stack: list = []  # per open span: [name, child_ns]
        self.spans: dict = defaultdict(lambda: [0, 0, 0])  # (caller, name) -> calls, total, self
        self.counts: Counter = Counter()
        self.top_ns = 0
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.top_ns = 0

    def _enter(self, name):
        frame = [name, 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, dt: int) -> None:
        stack = self.stack
        stack.pop()
        caller = stack[-1][0] if stack else _ROOT
        rec = self.spans[(caller, frame[0])]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]
        if stack:
            stack[-1][1] += dt
        else:
            self.top_ns += dt

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call is a span; on_result(args, result) counts."""
        pc = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                self._exit(frame, dt)
            if on_result is not None:
                self.bookkeep(on_result, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so each call only bumps a count."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bookkeep(self, fn, *args) -> None:
        """Run tracer-side work as its own span, so no layer is charged for it."""
        frame = self._enter("trace.bookkeeping")
        t0 = time.perf_counter_ns()
        fn(*args)
        self._exit(frame, time.perf_counter_ns() - t0)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        counts = self.counts
        span = self.span

        self._patch(Schema, "validate", span("core.validate", Schema.validate))
        self._patch(ActiveMultiset, "insert",
                    span("core.multiset_edit", ActiveMultiset.insert))
        self._patch(ActiveMultiset, "delete",
                    span("core.multiset_edit", ActiveMultiset.delete))
        materialize = ActiveMultiset.__dict__["_from_sorted_items"].__func__

        def count_materialized(args, result):
            counts["core.leaf_materialize_entries"] += result.distinct_size

        self._patch(ActiveMultiset, "_from_sorted_items", classmethod(
            span("core.leaf_materialize", materialize, count_materialized)))
        self._patch(TreeNode, "route_child",
                    self.counter("dynamic.route_steps", TreeNode.route_child))

        self._patch(DecisionTree, "update", span("dynamic.update", DecisionTree.update))
        self._patch(DecisionTree, "query", span("dynamic.query", DecisionTree.query))

        def count_gathered(args, result):
            counts["dynamic.gather_entries"] += len(result[0])

        self._patch(DecisionTree, "_gather",
                    span("dynamic.gather", DecisionTree._gather, count_gathered))
        rebuild_at = span("dynamic.rebuild", DecisionTree._rebuild_at)

        def traced_rebuild(tree, path, i):
            if not self.active:
                return rebuild_at(tree, path, i)
            before = list(path[: i + 1])
            info = rebuild_at(tree, path, i)
            self.bookkeep(self._compare_rebuild, before, info)
            return info

        self._patch(DecisionTree, "_rebuild_at", traced_rebuild)

        def count_nodes(args, result):
            counts["build.nodes"] += len(_signature(result))

        def count_generic(args, result):
            counts["build.generic_entries"] += len(args[0])
            count_nodes(args, result)

        generic = span("build.generic", build_mod._build_entries, count_generic)
        categorical = span("build.categorical", build_mod._build_cat_entries,
                           count_nodes)
        for mod in (build_mod, dynamic_mod):
            self._patch(mod, "_build_entries", generic)
            self._patch(mod, "_build_cat_entries", categorical)

        def count_rows(args, result):
            counts["gini.sweep_numeric_rows"] += len(args[0])

        self._patch(build_mod, "_sweep_numeric",
                    span("gini.sweep_numeric", build_mod._sweep_numeric, count_rows))
        self._patch(build_mod, "_gain_from_counts",
                    self.counter("gini.gain_calls", build_mod._gain_from_counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _compare_rebuild(self, before: list, info) -> None:
        # the replaced subtree is the path node whose depth the rebuild reports
        old = next(v for v in before if v.depth == info.depth)
        if _signature(old) == _signature(info.node):
            self.counts["dynamic.rebuild_unchanged"] += 1

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: [calls, total_ns, self_ns], summed over callers."""
        out: dict = defaultdict(lambda: [0, 0, 0])
        for (_, name), rec in self.spans.items():
            agg = out[name]
            for k in range(3):
                agg[k] += rec[k]
        return out

    def edges(self) -> list:
        """Aggregated spans as JSON-ready rows, heaviest self time first."""
        rows = [
            {"caller": caller, "span": name, "calls": rec[0],
             "total_s": rec[1] / 1e9, "self_s": rec[2] / 1e9}
            for (caller, name), rec in self.spans.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
