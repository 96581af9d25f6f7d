"""Outside-in tracing: spans around the public functions of each layer.

``Tracer.install`` replaces each traced function by a wrapper wherever a
``cqda`` module holds a reference to it, so calls made through a
``from .x import f`` binding are caught as well.  A span is a name, a
start, an end and the index of its parent span; spans stay in memory
and are reduced to per-layer metrics after the run.  A traced name that the
package no longer defines is reported as absent, never an error.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "cli": ("load_database",),
    "query": ("parse_query",),
    "compiler": ("binarize", "dpll_compile", "debin_tuple"),
    "project": ("project_circuit", "da_conjunctive"),
    "access": ("preprocess", "direct_access", "rank"),
    "hypergraph": ("best_order", "width_of_order", "nsw_bruteforce"),
}
# results kept for size metrics; only the latest call's result is held
KEEP_RESULT = {"compiler.dpll_compile", "project.project_circuit"}


class Tracer:
    """Spans as parallel arrays, so recording one allocates no GC-tracked object."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.last: dict[str, object] = {}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        open_, close, last = self._open, self._close, self.last
        keep = name in KEEP_RESULT

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if keep:
                last[name] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cqda" or n.startswith("cqda.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"cqda.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    @contextmanager
    def root(self, name: str):
        """Span for one set-up rep or request; layer spans nest below it."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def summarize(self) -> tuple[list[tuple], dict[str, list[int]]]:
        """Per-root aggregates and per-function durations.

        Returns ``[(root name, wall_ns, {fn: self_ns}, {fn: calls}), ...]``
        and ``{fn: [duration_ns, ...]}``.
        """
        n = len(self.names)
        child_ns = [0] * n
        root_of = list(range(n))
        roots: dict[int, tuple] = {}
        durations: dict[str, list[int]] = defaultdict(list)
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                root_of[i] = root_of[parent]
                child_ns[parent] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            if self.parents[i] < 0:
                roots[i] = (name, dur, defaultdict(int), defaultdict(int))
                continue
            durations[name].append(dur)
            _, _, self_ns, calls = roots[root_of[i]]
            self_ns[name] += dur - child_ns[i]
            calls[name] += 1
        return list(roots.values()), durations


def span_cost_ns() -> float:
    """Extra cost of one traced call: a wrapped no-op against a bare one, best of 5 trials."""
    def noop():
        return None

    rounds = 20000
    wrapped = Tracer()._wrap("noop", noop)
    best = {}
    for fn in (noop, wrapped):
        times = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(rounds):
                fn()
            times.append(time.perf_counter_ns() - t0)
        best[fn] = min(times)
    return max(0.0, (best[wrapped] - best[noop]) / rounds)


def layer_of(fn_name: str) -> str:
    return fn_name.split(".", 1)[0]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
